"""Exception types shared across the package, and the factorial-table bound
that FactorialLimitError's hint names."""


class DomainError(ValueError):
    """An argument lies outside the domain an operation is defined on."""


# The largest limit RUNGELENZ_FACTORIAL_LIMIT may set. The table holds every
# k! up to its limit, about L^2 log L bits: 16 MiB, built in 0.05 s, at 4096.
MAX_FACTORIAL_LIMIT = 4096


class FactorialLimitError(DomainError):
    """A factorial beyond the configured table limit was requested."""

    def __init__(self, needed: int, limit: int):
        self.needed = needed
        self.limit = limit
        hint = (f"set RUNGELENZ_FACTORIAL_LIMIT >= {needed}"
                if needed <= MAX_FACTORIAL_LIMIT else
                f"RUNGELENZ_FACTORIAL_LIMIT is at most {MAX_FACTORIAL_LIMIT}")
        super().__init__(
            f"factorial table limit exceeded: need {needed}!, table was built "
            f"with limit {limit} ({hint})"
        )

    def __reduce__(self):
        # rebuilt from (needed, limit), so it survives a --jobs worker's pickle
        return type(self), (self.needed, self.limit)


class ExactParseError(ValueError):
    """A string does not conform to the exact-value grammar."""


class InternalConsistencyError(RuntimeError):
    """Two routes that must agree exactly disagreed; indicates a bug."""
