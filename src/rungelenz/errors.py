"""Exception types shared across the package."""


class DomainError(ValueError):
    """An argument lies outside the domain an operation is defined on."""


class FactorialLimitError(DomainError):
    """A factorial beyond the table's limit was requested."""

    def __init__(self, needed: int, limit: int):
        self.needed = needed
        self.limit = limit
        super().__init__(f"factorial table limit {limit} exceeded: need {needed}!")

    def __reduce__(self):
        # rebuilt from (needed, limit), so it survives a --jobs worker's pickle
        return type(self), (self.needed, self.limit)


class ExactParseError(ValueError):
    """A string does not conform to the exact-value grammar."""


class InternalConsistencyError(RuntimeError):
    """Two routes that must agree exactly disagreed; indicates a bug."""
