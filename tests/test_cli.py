"""Command-line surface: exit-status discipline, formats, arg parsing."""
import csv
import hashlib
import io
import json
import os
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

import rungelenz
from rungelenz.cli import main
from rungelenz.radical import parse_exact

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def child_env(**extra):
    """Environment in which a child interpreter imports the same ``rungelenz``
    package as this test session, whatever the working directory."""
    path = [str(Path(rungelenz.__file__).resolve().parents[1])]
    if os.environ.get("PYTHONPATH"):
        path.append(os.environ["PYTHONPATH"])
    return dict(os.environ, PYTHONPATH=os.pathsep.join(path), **extra)


def verify_with_table(limit, *argv):
    """`verify argv` in a child whose default factorial table has this limit
    (None keeps the default table)."""
    table = ("" if limit is None else
             f"pfrational._default_table = pfrational.FactorialTable({limit}); ")
    code = ("import os, sys; os.cpu_count = lambda: 2; "
            "from rungelenz import pfrational; " + table +
            "from rungelenz.cli import main; sys.exit(main())")
    return subprocess.run([sys.executable, "-c", code, "verify", *argv],
                          capture_output=True, text=True, timeout=60,
                          env=child_env())


class TestTable1:
    def test_values_and_exit(self, capsys):
        code, out = run_cli(capsys, "table1")
        assert code == 0
        for token in ("46/1", "4/1", "8/1", "16/1"):
            assert token in out
        assert out.count("exact-match") == 4

    def test_json_format(self, capsys):
        code, out = run_cli(capsys, "table1", "--format", "json")
        assert code == 0
        reports = json.loads(out)
        assert [r["rule"] for r in reports] == ["l2", "az2", "az3", "az4"]
        assert [r["lhs"] for r in reports] == ["46/1", "4/1", "8/1", "16/1"]
        assert all(r["verdict"] == "exact-match" for r in reports)

    def test_fault_injection_flips_exit_status(self, capsys, monkeypatch):
        import rungelenz.cli as cli
        from rungelenz.sumrules import SumRuleReport
        from rungelenz.radical import RadicalSum
        from fractions import Fraction

        def corrupted():
            good = cli._table1_reports.__wrapped__() if hasattr(
                cli._table1_reports, "__wrapped__") else None
            rep = SumRuleReport("l2", 9, 4, 3, 1, 1,
                                RadicalSum.from_rational(45), Fraction(46))
            return [rep]

        monkeypatch.setattr(cli, "_table1_reports", corrupted)
        code, out = run_cli(capsys, "table1")
        assert code == 1
        assert "mismatch" in out


class TestVerify:
    def test_full_sweep_exits_zero(self, capsys):
        code, out = run_cli(capsys, "verify", "--max-n", "8",
                            "--powers", "1,2,3,4")
        assert code == 0
        assert "0 mismatches" in out

    def test_csv_format(self, capsys):
        code, out = run_cli(capsys, "verify", "--max-n", "3", "--format", "csv")
        assert code == 0
        rows = list(csv.reader(io.StringIO(out)))
        assert rows[0][:6] == ["rule", "n", "m", "n1", "n2", "p"]
        body = rows[1:]
        assert all(r[8] == "exact-match" for r in body)
        # exact strings round-trip through the grammar
        for r in body:
            parse_exact(r[6])
            parse_exact(r[7])

    def test_json_format_schema(self, capsys):
        code, out = run_cli(capsys, "verify", "--max-n", "2", "--format", "json")
        payload = json.loads(out)
        assert payload["summary"]["mismatches"] == 0
        rec = payload["reports"][0]
        assert set(rec) >= {"rule", "params", "lhs", "rhs", "verdict"}
        assert set(rec["params"]) == {"n", "m", "n1", "n2", "p"}

    def test_filters_restrict_sweep(self, capsys):
        code, out = run_cli(capsys, "verify", "--max-n", "6", "--min-n", "6",
                            "--m", "2", "--n1", "2", "--powers", "1")
        assert code == 0
        lines = [ln for ln in out.splitlines() if ln.startswith("l2")]
        assert len(lines) == 1
        fields = dict(tok.split("=", 1) for tok in lines[0].split() if "=" in tok)
        assert (fields["n"], fields["m"], fields["n1"], fields["p"]) == (
            "6", "2", "2", "1")

    def test_jobs_parallel_output_identical(self, capsys):
        code1, out1 = run_cli(capsys, "verify", "--max-n", "3", "--format", "json")
        code2, out2 = run_cli(capsys, "verify", "--max-n", "3", "--format", "json",
                              "--jobs", "2")
        assert code1 == code2 == 0
        assert out1 == out2

    def test_extended_powers_use_generic_moments(self, capsys):
        code, out = run_cli(capsys, "verify", "--max-n", "3", "--powers", "5,6")
        assert code == 0
        assert "az-moment" in out

    def test_empty_range_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["verify", "--max-n", "0"])
        assert exc.value.code == 2

    def test_bad_powers_is_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            main(["verify", "--max-n", "3", "--powers", "1,banana"])
        assert exc.value.code == 2

    @pytest.mark.parametrize("powers, repeated", [("2,2", 2), ("1,3,4,3", 3),
                                                   ("5, 5", 5)])
    def test_repeated_power_is_usage_error(self, capsys, powers, repeated):
        with pytest.raises(SystemExit) as exc:
            main(["verify", "--max-n", "2", "--powers", powers])
        assert exc.value.code == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert f"--powers names {repeated} more than once" in err

    @pytest.mark.parametrize("jobs", ["0", "-3"])
    def test_jobs_below_one_is_usage_error(self, jobs):
        with pytest.raises(SystemExit) as exc:
            main(["verify", "--max-n", "3", "--jobs", jobs])
        assert exc.value.code == 2

    def test_jobs_above_cpu_count_is_usage_error(self, monkeypatch, capsys):
        # checked before any worker is forked: a patched CPU count keeps it small
        monkeypatch.setattr(os, "cpu_count", lambda: 3)
        with pytest.raises(SystemExit) as exc:
            main(["verify", "--max-n", "3", "--jobs", "4"])
        assert exc.value.code == 2
        assert "1..3" in capsys.readouterr().err
        monkeypatch.setattr(os, "cpu_count", lambda: None)  # unknown: 1 CPU
        with pytest.raises(SystemExit) as exc:
            main(["verify", "--max-n", "3", "--jobs", "2"])
        assert exc.value.code == 2
        code, _ = run_cli(capsys, "verify", "--max-n", "2", "--jobs", "1")
        assert code == 0

    def test_jobs_without_fork_is_usage_error(self, monkeypatch, capsys):
        """--jobs N > 1 forks its workers: on a platform without os.fork it is
        a usage error that says why, and --jobs 1 still runs."""
        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        monkeypatch.delattr(os, "fork")
        with pytest.raises(SystemExit) as exc:
            main(["verify", "--max-n", "3", "--jobs", "2"])
        assert exc.value.code == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert "no os.fork" in err
        code, _ = run_cli(capsys, "verify", "--max-n", "2", "--jobs", "1")
        assert code == 0

    @pytest.mark.parametrize("min_n", ["0", "-4"])
    def test_min_n_below_one_is_usage_error(self, min_n):
        with pytest.raises(SystemExit) as exc:
            main(["verify", "--max-n", "3", "--min-n", min_n])
        assert exc.value.code == 2


class TestCompute:
    def test_3j_half_integers_decimal_and_fraction(self, capsys):
        _, out1 = run_cli(capsys, "compute", "3j", "1/2", "1/2", "1", "1/2",
                          "-1/2", "0")
        _, out2 = run_cli(capsys, "compute", "3j", "0.5", "0.5", "1", "0.5",
                          "-0.5", "0")
        assert out1 == out2 == "(1/6)*sqrt(6)\n"

    def test_6j(self, capsys):
        _, out = run_cli(capsys, "compute", "6j", "1", "1", "0", "1", "1", "1")
        assert out.strip() == "-1/3"

    def test_cg(self, capsys):
        _, out = run_cli(capsys, "compute", "cg", "1/2", "1/2", "1/2", "-1/2",
                         "0", "0")
        assert out.strip() == "(1/2)*sqrt(2)"

    def test_beta_vanishes_at_l_equals_n(self, capsys):
        _, out = run_cli(capsys, "compute", "beta", "5", "5", "0")
        assert out.strip() == "0/1"

    def test_beta_with_a_radicand_too_hard_to_split_is_usage_error(self, capsys):
        # beta^2 = 4 (n-2)(n+2)/15 with n-2 and n+2 both prime near 1e13:
        # the bounded split gives up at once instead of dividing for hours
        start = time.perf_counter()
        with pytest.raises(SystemExit) as exc:
            main(["compute", "beta", "10000000000281", "2", "0"])
        assert time.perf_counter() - start < 1.0
        assert exc.value.code == 2
        assert "cannot be checked" in capsys.readouterr().err

    def test_bcoeff(self, capsys):
        _, out = run_cli(capsys, "compute", "bcoeff", "1", "0", "0", "1")
        assert out.strip() == "-(1/2)*sqrt(2)"

    def test_pbar_uniform_row(self, capsys):
        code, out = run_cli(capsys, "compute", "pbar", "5")
        assert code == 0
        assert out.splitlines() == [f"l'={lp}: 1/5" for lp in range(5)]

    def test_p_json(self, capsys):
        code, out = run_cli(capsys, "compute", "p", "2", "0", "1", "0.0",
                            "--format", "json")
        payload = json.loads(out)
        assert float(payload["value"]) == pytest.approx(0.0, abs=1e-12)

    @pytest.mark.parametrize("argv", [("h1", "3", "5"), ("h2", "3", "-4"),
                                      ("h1", "0", "0"),
                                      # h1/h2 always print JSON
                                      ("h1", "4", "1", "--format", "text")])
    def test_block_outside_manifold_is_usage_error(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main(["compute", *argv])
        assert exc.value.code == 2
        assert capsys.readouterr().out == ""

    def test_h1_matrix_json(self, capsys):
        code, out = run_cli(capsys, "compute", "h1", "2", "0")
        payload = json.loads(out)
        assert payload["scale"] == "gamma^2*n^2/16"
        assert payload["q"] == [-1, 1]

    def test_malformed_half_integer_is_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            main(["compute", "3j", "x", "1", "1", "0", "0", "0"])
        assert exc.value.code == 2

    @pytest.mark.parametrize("argv, message", [
        (("3j", "-1", "1", "1", "0", "0", "0"), "j = -1 must be nonnegative"),
        (("6j", "-1", "1", "1", "1", "1", "1"), "j = -1 must be nonnegative"),
        (("6j", "1", "1", "1", "1", "1", "-1/2"), "j = -1/2 must be nonnegative"),
        (("3j", "1", "1", "1", "2", "-1", "-1"), "|m| = 2 exceeds j = 1"),
        (("cg", "1", "2", "1", "-1", "1", "1"), "|m| = 2 exceeds j = 1"),
        (("cg", "1", "0", "1", "0", "1", "-3/2"), "|m| = 3/2 exceeds j = 1"),
        (("3j", "1", "1/2", "1", "0", "0", "0"), "m = 0 has wrong parity for j = 1/2"),
        (("cg", "1/2", "0", "1/2", "0", "1", "0"), "m = 0 has wrong parity for j = 1/2"),
    ])
    def test_out_of_range_symbol_is_usage_error(self, capsys, argv, message):
        with pytest.raises(SystemExit) as exc:
            main(["compute", *argv])
        assert exc.value.code == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.endswith(f"error: {message}\n")

    @pytest.mark.parametrize("argv", [
        ("3j", "1", "1", "3", "0", "0", "0"),  # triangle
        ("3j", "1", "1", "1", "1", "1", "1"),  # m sum
        ("cg", "1", "1", "1", "1", "1", "0"),  # m1 + m2 != m3
        ("6j", "1", "1", "3", "1", "1", "1"),  # triangle
    ])
    def test_in_range_vanishing_symbol_prints_zero(self, capsys, argv):
        assert run_cli(capsys, "compute", *argv) == (0, "0/1\n")

    def test_out_of_manifold_bcoeff_is_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            main(["compute", "bcoeff", "1", "0", "0", "5"])
        assert exc.value.code == 2

    @pytest.mark.parametrize("argv", [
        ["compute", "p", "5", "1", "2", "nan"],
        ["compute", "p", "5", "1", "2", "inf"],
        ["compute", "pbar", "0"],
        ["compute", "pbar", "-2"],
    ])
    def test_non_finite_chi_and_empty_manifold_are_usage_errors(self, argv):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2

    @pytest.mark.parametrize("chi", ["-inf", "-nan"])
    def test_negative_non_finite_chi_reaches_the_finite_check(self, capsys, chi):
        with pytest.raises(SystemExit) as exc:
            main(["compute", "p", "5", "1", "2", chi])
        assert exc.value.code == 2
        assert "must be finite" in capsys.readouterr().err

    @pytest.mark.parametrize("chi", ["1e308", "-1e308"])
    def test_chi_q_beyond_the_float_range_is_usage_error(self, capsys, chi):
        # chi*(n-1) overflows at n = 3: exit 2, not a traceback and exit 1
        with pytest.raises(SystemExit) as exc:
            main(["compute", "p", "3", "1", "2", chi])
        assert exc.value.code == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert "must be finite" in err

    @pytest.mark.parametrize("argv, message", [
        (("3", "5", "0"), "l = 5 outside |m| <= l <= n"),
        (("3", "0", "2"), "l = 0 outside |m| <= l <= n"),
        (("3", "-1", "0"), "l = -1 outside |m| <= l <= n"),
        (("4", "1", "-2"), "l = 1 outside |m| <= l <= n"),
    ])
    def test_out_of_range_beta_is_usage_error(self, capsys, argv, message):
        with pytest.raises(SystemExit) as exc:
            main(["compute", "beta", *argv])
        assert exc.value.code == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert message in err

    @pytest.mark.parametrize("argv", [("3", "2", "2"), ("5", "4", "-4")])
    def test_beta_at_l_equals_abs_m_prints_zero(self, capsys, argv):
        assert run_cli(capsys, "compute", "beta", *argv) == (0, "0/1\n")

    def test_negative_exponent_chi_is_positional(self, capsys):
        code, out = run_cli(capsys, "compute", "p", "5", "1", "2", "-1e-3")
        assert code == 0
        assert 0.0 <= float(out) <= 1.0


class TestEnvironment:
    def test_pbar_row_past_the_bound_is_usage_error_at_once(self, monkeypatch, capsys):
        # the row's entry l' = n-1 reads (2n-1+l_init)!, here 4099!: exit 2
        # before any block or 6j series is built
        from rungelenz import stark

        calls = []
        monkeypatch.setattr(stark, "b_block", lambda *a: calls.append(a))
        monkeypatch.setattr(stark, "_sixj_squared", lambda *a: calls.append(a))
        with pytest.raises(SystemExit) as exc:
            main(["compute", "pbar", "1367", "--l-init", "1366"])
        assert exc.value.code == 2 and calls == []
        assert "need 4099!" in capsys.readouterr().err

    def test_factorial_limit_above_the_bound_is_usage_error(self):
        # checked before any entry is built; a table of 10^9 factorials would
        # hit the child's 512 MiB address space at once
        import resource
        from rungelenz.pfrational import MAX_FACTORIAL_LIMIT

        def cap():
            resource.setrlimit(resource.RLIMIT_AS, (512 << 20, 512 << 20))

        big = str(10 ** 9)
        proc = subprocess.run(
            [sys.executable, "-m", "rungelenz", "compute", "3j",
             big, big, big, "0", "0", "0"],
            capture_output=True, text=True, timeout=60, preexec_fn=cap,
            env=child_env())
        assert proc.returncode == 2, proc.stderr
        assert proc.stdout == ""
        assert f"need {big}!" in proc.stderr
        assert f"limit {MAX_FACTORIAL_LIMIT} exceeded" in proc.stderr

    def test_import_surface(self):
        # the modules a fresh -I interpreter gains from importing the package,
        # then its CLI, over those it held before (site's included)
        src = str(Path(rungelenz.__file__).resolve().parents[1])
        code = ("import sys; sys.path.insert(0, %r); before = set(sys.modules); "
                "import rungelenz; pkg = set(sys.modules); import rungelenz.cli; "
                "print(*sorted(pkg - before)); print(*sorted(set(sys.modules) - pkg))"
                % src)
        proc = subprocess.run([sys.executable, "-I", "-c", code],
                              capture_output=True, text=True, timeout=60)
        assert proc.returncode == 0, proc.stderr
        package, cli = (set(line.split()) for line in proc.stdout.splitlines())
        assert "rungelenz.basis" in package and "rungelenz.cli" in cli
        assert not package & {"dataclasses", "inspect", "csv", "argparse"}
        assert "csv" not in cli

    @pytest.mark.parametrize("jobs", ["1", "2"])
    def test_factorial_limit_in_verify_is_usage_error(self, jobs):
        proc = verify_with_table(20, "--max-n", "12", "--min-n", "12", "--m", "0",
                                 "--n1", "0", "--powers", "1", "--jobs", jobs)
        assert proc.returncode == 2, proc.stderr
        assert proc.stdout == ""
        assert "need 23!" in proc.stderr and "Traceback" not in proc.stderr

    @pytest.mark.parametrize("jobs", ["1", "2"])
    def test_factorial_limit_checked_before_the_sweep(self, jobs):
        """(2n-1)! is the largest factorial a block of n needs: with limit 21
        the n <= 11 sweep runs, and n <= 12 fails before any report; so does
        n <= 2049 against the default table's bound."""
        assert verify_with_table(21, "--max-n", "11", "--jobs", jobs).returncode == 0
        for max_n, need, limit in (("12", 23, 21), ("2049", 4097, None)):
            proc = verify_with_table(limit, "--max-n", max_n, "--jobs", jobs)
            assert proc.returncode == 2, proc.stderr
            assert proc.stdout == ""
            assert f"need {need}!" in proc.stderr and "Traceback" not in proc.stderr

    @pytest.mark.parametrize("jobs", ["1", "2"])
    def test_closed_stdout_exits_quietly(self, jobs):
        """A reader that closes stdout after one line ends the sweep with
        status 141 and no traceback. The sweep up to n = 40 takes minutes;
        under --jobs 2 the main process kills and reaps its children, so
        once it has exited its process group is empty."""
        code = ("import os, sys; os.cpu_count = lambda: 2; "
                "from rungelenz.cli import main; sys.exit(main())")
        proc = subprocess.Popen(
            [sys.executable, "-c", code, "verify", "--max-n", "40",
             "--format", "text", "--jobs", jobs],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=child_env(),
            start_new_session=True)
        try:
            first = proc.stdout.readline()
            proc.stdout.close()
            _, err = proc.communicate(timeout=60)
            with pytest.raises(ProcessLookupError):
                os.killpg(proc.pid, 0)
        finally:  # on a timeout or a failure, no worker may outlive the test
            try:
                os.killpg(proc.pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
            proc.wait()
        assert first.startswith(b"l2 ")
        assert b"Traceback" not in err, err.decode()
        assert proc.returncode == 141

    @pytest.mark.parametrize("method", ["fork", "forkserver", "spawn"])
    def test_pool_workers_exit_with_a_killed_parent(self, method):
        """SIGKILL of the main process of a --jobs 2 sweep, and of nothing
        else: its pipes close, and each forked worker exits at its next
        write, within seconds, instead of running on. The multiprocessing
        start method the host program has set changes none of this, since
        --jobs forks its workers itself."""
        code = (f"import multiprocessing, os, sys; "
                f"multiprocessing.set_start_method({method!r}); "
                "os.cpu_count = lambda: 2; "
                "from rungelenz.cli import main; sys.exit(main())")
        proc = subprocess.Popen(
            [sys.executable, "-c", code, "verify", "--max-n", "40",
             "--format", "text", "--jobs", "2"],
            stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, env=child_env(),
            start_new_session=True)
        try:
            assert proc.stdout.readline().startswith(b"l2 ")  # the workers run
            os.kill(proc.pid, signal.SIGKILL)
            proc.wait(timeout=10)
            deadline = time.monotonic() + 10
            while True:
                try:
                    os.killpg(proc.pid, 0)
                except ProcessLookupError:
                    break
                assert time.monotonic() < deadline, "workers outlived the sweep"
                time.sleep(0.1)
        finally:
            try:
                os.killpg(proc.pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
            proc.wait()
            proc.stdout.close()

    def test_python_dash_m(self):
        proc = subprocess.run([sys.executable, "-m", "rungelenz", "table1"],
                              capture_output=True, text=True, env=child_env())
        assert proc.returncode == 0, proc.stderr
        assert "46/1" in proc.stdout

    def test_console_entry_point(self):
        """The ``rungelenz`` script declared in ``[project.scripts]`` runs
        ``table1``, exits 0 and prints 46/1.

        The declared target is run in a fresh interpreter the way the
        installer's generated wrapper runs it, so no install is needed; an
        installed script found on PATH is run as well.
        """
        if sys.version_info >= (3, 11):
            import tomllib
        else:
            tomllib = pytest.importorskip("tomli")
        with PYPROJECT.open("rb") as fh:
            scripts = tomllib.load(fh)["project"].get("scripts", {})
        assert "rungelenz" in scripts
        module, _, attr = scripts["rungelenz"].partition(":")
        wrapper = (f"import sys; from {module} import {attr}; "
                   f"sys.argv[0] = 'rungelenz'; sys.exit({attr}())")
        runs = [([sys.executable, "-c", wrapper, "table1"], child_env())]
        if shutil.which("rungelenz"):
            runs.append((["rungelenz", "table1"], None))
        for cmd, env in runs:
            proc = subprocess.run(cmd, capture_output=True, text=True, env=env)
            assert proc.returncode == 0, proc.stderr
            assert "46/1" in proc.stdout


class TestPoolImport:
    """No run loads pool machinery: --jobs N forks N children itself."""

    def test_serial_runs_load_no_pool_modules(self):
        """Checked in a fresh ``-I`` interpreter: this session has imported
        concurrent.futures already. The steps run in order, so each later
        step is also checked against everything before it."""
        src = str(Path(rungelenz.__file__).resolve().parents[1])
        script = "\n".join([
            "import contextlib, io, json, os, sys",
            f"sys.path.insert(0, {src!r})",
            "os.cpu_count = lambda: 2",
            "pool = ('concurrent.futures', 'multiprocessing')",
            "loaded = {}",
            "import rungelenz",
            "loaded['import rungelenz'] = [m for m in pool if m in sys.modules]",
            "import rungelenz.cli as cli",
            "loaded['import rungelenz.cli'] = [m for m in pool if m in sys.modules]",
            "for argv in [['verify', '--max-n', '3', '--format', 'json'],",
            "             ['compute', 'beta', '3', '1', '0'], ['table1'],",
            "             ['verify', '--max-n', '3', '--format', 'json',",
            "              '--jobs', '2']]:",
            "    with contextlib.redirect_stdout(io.StringIO()):",
            "        assert cli.main(argv) == 0, argv",
            "    loaded[' '.join(argv)] = [m for m in pool if m in sys.modules]",
            "print(json.dumps(loaded))",
        ])
        proc = subprocess.run([sys.executable, "-I", "-c", script],
                              capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        loaded = json.loads(proc.stdout.splitlines()[-1])
        assert loaded == {
            "import rungelenz": [],
            "import rungelenz.cli": [],
            "verify --max-n 3 --format json": [],
            "compute beta 3 1 0": [],
            "table1": [],
            "verify --max-n 3 --format json --jobs 2": [],
        }

    @pytest.mark.parametrize("jobs", [2, 3])
    def test_jobs_forks_that_many_children(self, capsys, monkeypatch, jobs):
        """--jobs N forks exactly N children and reaps them all; a serial run
        forks none, and both write the same output."""
        forked = []
        real_fork = os.fork

        def counting_fork():
            pid = real_fork()
            if pid:
                forked.append(pid)
            return pid

        monkeypatch.setattr(os, "fork", counting_fork)
        monkeypatch.setattr(os, "cpu_count", lambda: jobs)
        argv = ("verify", "--max-n", "4", "--format", "json")
        code2, parallel = run_cli(capsys, *argv, "--jobs", str(jobs))
        assert len(forked) == jobs
        for pid in forked:  # reaped before main returned
            with pytest.raises(ChildProcessError):
                os.waitpid(pid, os.WNOHANG)
        code1, serial = run_cli(capsys, *argv)
        assert len(forked) == jobs
        assert code1 == code2 == 0
        assert parallel == serial


class TestSharding:
    """verify maps one task per (n, |m|) block, both signs of m, and writes
    each tuple's text once every earlier tuple's text is written."""

    def test_each_block_is_one_task_in_sweep_order(self, capsys, monkeypatch,
                                                   tmp_path):
        """Under --jobs 2 every tuple of one (n, |m|) block runs in one
        forked child, never in the main process; child w runs the blocks
        k = w (mod 2) of the sweep, in sweep order."""
        import rungelenz.cli as cli

        log = tmp_path / "calls"
        real = cli._verify_worker

        def logged(fmt, task):
            with open(log, "a") as fh:
                fh.write(f"{os.getpid()} {task[0]} {task[1]}\n")
            return real(fmt, task)

        monkeypatch.setattr(cli, "_verify_worker", logged)
        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        argv = ("verify", "--max-n", "6", "--format", "json")
        code2, parallel = run_cli(capsys, *argv, "--jobs", "2")
        calls = [tuple(map(int, line.split())) for line in log.read_text().splitlines()]
        assert len(calls) == sum(n * n for n in range(1, 7))
        sweep = list(dict.fromkeys((n, abs(m)) for n in range(1, 7)
                                   for m in range(-(n - 1), n)))
        runs = {}  # pid -> the blocks it ran, in order
        for pid, n, m in calls:
            blocks = runs.setdefault(pid, [])
            if not blocks or blocks[-1] != (n, abs(m)):
                blocks.append((n, abs(m)))
        assert len(runs) == 2 and os.getpid() not in runs
        assert sorted(runs.values()) == [sweep[0::2], sweep[1::2]]
        monkeypatch.setattr(cli, "_verify_worker", real)
        code1, serial = run_cli(capsys, *argv)
        assert code1 == code2 == 0
        assert parallel == serial

    @pytest.mark.parametrize("fmt", ["text", "json", "csv"])
    @pytest.mark.parametrize("sweep", [
        ("--min-n", "4", "--max-n", "6"), ("--max-n", "6", "--m", "-2"),
        ("--max-n", "6", "--m", "3"), ("--max-n", "6", "--n1", "0")])
    def test_jobs_output_identical_under_filters(self, capsys, monkeypatch,
                                                 sweep, fmt):
        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        argv = ("verify", *sweep, "--format", fmt)
        code1, serial = run_cli(capsys, *argv)
        code2, parallel = run_cli(capsys, *argv, "--jobs", "2")
        assert code1 == code2 == 0
        assert parallel == serial

    @pytest.mark.parametrize("jobs", ["1", "2"])
    def test_failure_leaves_the_output_before_its_block(self, capsys,
                                                        monkeypatch, jobs):
        """A tuple with m > 0 fails mid-sweep: the error propagates, and
        stdout holds exactly the tuples before its block's first (m < 0)
        tuple, a prefix of the full output that ends at a tuple boundary."""
        import rungelenz.cli as cli

        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        argv = ("verify", "--max-n", "6", "--format", "text")
        _, full = run_cli(capsys, *argv)
        real = cli._verify_worker

        def faulty(fmt, task):
            if task[:4] == (5, 2, 0, 2):
                raise RuntimeError("injected fault")
            return real(fmt, task)

        monkeypatch.setattr(cli, "_verify_worker", faulty)
        with pytest.raises(RuntimeError, match="injected fault"):
            main([*argv, "--jobs", jobs])
        out = capsys.readouterr().out
        tuples = [(n, m, n1) for n in range(1, 7) for m in range(-(n - 1), n)
                  for n1 in range(n - abs(m))]
        lines = full.splitlines(keepends=True)
        assert full.startswith(out)
        assert out == "".join(lines[:4 * tuples.index((5, -2, 0))])


    @pytest.mark.parametrize("fault, message", [
        # pickle.dumps fails on the lambda; the child sends a RuntimeError
        ("exc = RuntimeError('injected fault'); exc.hook = lambda: 0",
         b"RuntimeError: --jobs worker raised RuntimeError('injected fault'), "
         b"which cannot be pickled"),
        # pickle.loads fails in the main process: __init__ takes two arguments
        ("exc = Unloadable('injected fault', 0)",
         b"missing 1 required positional argument: 'extra'")])
    def test_unpicklable_worker_exception_ends_the_sweep(self, fault, message):
        """A --jobs 2 worker exception that pickle cannot carry ends the sweep
        with an error and a traceback, not a hang, and leaves no child."""
        err = self._faulty_sweep(fault)
        assert message in err, err.decode()

    def test_worker_exception_holding_an_exact_value_is_raised(self):
        """A RadicalSum in a --jobs 2 worker's exception survives pickling:
        the main process raises that exception, not an AttributeError."""
        err = self._faulty_sweep(
            "from rungelenz.radical import RadicalSum\n"
            "        exc = ValueError('injected fault', RadicalSum.from_sqrt(3))")
        assert err.rstrip().endswith(
            b"ValueError: ('injected fault', RadicalSum('(1/1)*sqrt(3)'))"), err.decode()
        assert b"AttributeError" not in err

    @staticmethod
    def _faulty_sweep(fault):
        """stderr of verify --max-n 6 --jobs 2 whose worker runs fault, then
        raises exc, on the block (5, 2); the sweep must end with exit 1, a
        traceback, no summary and no child left."""
        code = "\n".join([
            "import os, sys",
            "os.cpu_count = lambda: 2",
            "import rungelenz.cli as cli",
            "class Unloadable(Exception):",
            "    def __init__(self, text, extra):",
            "        super().__init__(text)",
            "real = cli._verify_worker",
            "def faulty(fmt, task):",
            "    if task[:2] == (5, 2):",
            f"        {fault}",
            "        raise exc",
            "    return real(fmt, task)",
            "cli._verify_worker = faulty",
            "sys.exit(cli.main())",
        ])
        proc = subprocess.Popen(
            [sys.executable, "-c", code, "verify", "--max-n", "6", "--jobs", "2"],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=child_env(),
            start_new_session=True)
        try:
            out, err = proc.communicate(timeout=60)
            with pytest.raises(ProcessLookupError):
                os.killpg(proc.pid, 0)
        finally:
            try:
                os.killpg(proc.pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
            proc.wait()
        assert proc.returncode == 1
        assert b"Traceback" in err
        assert out.startswith(b"l2 ") and b"summary" not in out
        return err


class TestBenchTracer:
    def test_trace_metrics_survive_a_traced_solve(self):
        """The benchmark's --trace 1 rebinds package names from outside src/;
        a traced p_table and verify must still yield every per-layer metric
        the benchmark declares."""
        root = PYPROJECT.parent
        names = [layer["name"] for layer in
                 json.loads((root / "BENCHMARK.json").read_text())["per_layer"]]
        script = "\n".join([
            "import json, sys",
            f"sys.path.insert(0, {str(root / 'bench')!r})",
            "import tracer",
            "tr = tracer.install()",
            "from rungelenz import cli, stark",
            "stark.p_table(4, 0.7)",
            "assert cli.main(['verify', '--max-n', '3']) == 0",
            "print(json.dumps(sorted(tr.metrics(1.0))))",
        ])
        proc = subprocess.run([sys.executable, "-c", script], capture_output=True,
                              text=True, env=child_env())
        assert proc.returncode == 0, proc.stderr
        got = json.loads(proc.stdout.splitlines()[-1])
        # trace.overhead_frac is the harness's own, from a traced and an
        # untraced run
        assert len(got) == 44
        assert got == sorted(set(names) - {"trace.overhead_frac"})

    def test_install_wraps_the_pinned_names(self):
        """install() reads and rebinds package names by attribute, and its
        metrics read b_matrix's and az_power_matrix's cache_info: after one
        traced verify --max-n 2 each pinned name is rebound, in its module
        and where cli imported it, and the sum-rule counters saw the sweep."""
        script = "\n".join([
            "import contextlib, io, json, sys",
            f"sys.path.insert(0, {str(PYPROJECT.parent / 'bench')!r})",
            "import tracer",
            "from rungelenz import basis, cli, diamagnetic, operators",
            "def pinned():",
            "    return [operators.beta, cli.beta, operators.az_power_matrix,",
            "            basis.b_matrix, diamagnetic.h1_matrix, cli.h1_matrix,",
            "            diamagnetic.h2_matrix, cli.h2_matrix]",
            "before = pinned()",
            "tr = tracer.install()",
            "with contextlib.redirect_stdout(io.StringIO()):",
            "    code = cli.main(['verify', '--max-n', '2'])",
            "m = tr.metrics(1.0)",
            "print(json.dumps([code, [a is not b for a, b in zip(before, pinned())],",
            "                  [m[k][0] for k in ('sumrules.sum_rule_l2.calls',",
            "                   'sumrules.sum_rule_az.calls', 'operators.beta.calls')]]))",
        ])
        proc = subprocess.run([sys.executable, "-c", script], capture_output=True,
                              text=True, env=child_env(), timeout=60)
        assert proc.returncode == 0, proc.stderr
        code, rebound, calls = json.loads(proc.stdout.splitlines()[-1])
        assert code == 0 and all(rebound), rebound
        assert calls == [5, 15, 0]  # 5 tuples, powers 1-4


class TestGoldenOutput:
    """Byte-identical CLI output: sha256 of stdout, pinned from a known-good
    build. A digest changes only when the output contract changes; never
    re-record one to make a refactor pass."""

    VERIFY_ARGV = ("verify", "--max-n", "6", "--powers", "1,2,3,4,5,6,7,8",
                   "--format", "json")
    VERIFY_SHA256 = "2356170e01a0870607e34078838435d3fb56ede28ba9da842096b016a92e761a"
    # n <= 9 holds 198 printed-form mismatches and 40 not-evaluable notes
    VERIFY9_ARGV = ("verify", "--max-n", "9", "--powers", "1,2,3,4,5,6,7,8",
                    "--format", "json")
    VERIFY9_SHA256 = "bf40e6d9667e20799cf749e1b7c32661a579fd492b34f38ee528bc18b0cddeb6"
    # the largest pinned sweep: n <= 12 over powers 1..8
    VERIFY12_ARGV = ("verify", "--max-n", "12", "--powers", "1,2,3,4,5,6,7,8",
                     "--format", "json")
    VERIFY12_SHA256 = "848c9f896a2fde3d8509886d4d17f4007cba8680a941c5f3d20d22c013e761b4"
    # the VERIFY_ARGV sweep in the other formats, and in JSON over two workers
    VERIFY_FORMAT_SHA256 = {
        ("text", "1"): "f37e9f2b85535d2a2426fa42736b3a205c0647cfc5e5eb1bd1762c98935f1e53",
        ("csv", "1"): "c69ba413cbf2fae4e0044bf3b75500886ae69e61e2fc04b61cfc44c3e7bc60b4",
        ("json", "2"): VERIFY_SHA256,
        # two workers write what one does
        ("text", "2"): "f37e9f2b85535d2a2426fa42736b3a205c0647cfc5e5eb1bd1762c98935f1e53",
        ("csv", "2"): "c69ba413cbf2fae4e0044bf3b75500886ae69e61e2fc04b61cfc44c3e7bc60b4",
    }
    # over the concatenated `compute <kind> n m` outputs, m ascending
    MATRIX_SHA256 = {
        ("h1", 1): "3290d5b86dab6281aa114734625c825285291ece95ddb7ed938d6df7e29ebd0e",
        ("h1", 2): "45cced3250dd3233ec1121168f808df83357a1cf23c40ce5a7a326be2c73980e",
        ("h1", 3): "6ea30eebc82ec2c355878d8261dd133798ffe929db0bf72758114c730fb912e1",
        ("h1", 4): "54f8e2ebfacbf9c3cd0f4fec50f5c4a0f98e7c3a8fab86ba35130ce61d13a189",
        ("h1", 5): "d8f31b8af3549e76ea22653624d062de08b6010f84cde981ced47b41b67e49cd",
        ("h2", 1): "52144fa4375878f08059731b3cd1064d446164da7cbc2ecd87b7f186ec256d43",
        ("h2", 2): "b77e0f1b77d36b11c74815bc7a16df11fec851672d1445b3c735d1ebb5b93e90",
        ("h2", 3): "7b7b53fc3537157885c1e4ddea1388bd2382aeddbf9e1376840461d03d56b52a",
        ("h2", 4): "82b0799c9a4474bb5458f08fec9f8c2198c2685c389bdb8555f2b5037e937d69",
        ("h2", 5): "cf75ec2a83dd008abaa5bc1020a6a431bb4a2a3a1596344b1f05c88c83394628",
    }

    @staticmethod
    def sha256(text):
        return hashlib.sha256(text.encode()).hexdigest()

    def test_verify_json(self, capsys):
        code, out = run_cli(capsys, *self.VERIFY_ARGV)
        assert code == 0
        assert self.sha256(out) == self.VERIFY_SHA256

    @pytest.mark.parametrize("fmt,jobs", sorted(VERIFY_FORMAT_SHA256))
    def test_verify_formats(self, capsys, monkeypatch, fmt, jobs):
        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        code, out = run_cli(capsys, *self.VERIFY_ARGV[:-1], fmt, "--jobs", jobs)
        assert code == 0
        assert self.sha256(out) == self.VERIFY_FORMAT_SHA256[fmt, jobs]

    def test_verify_json_printed_forms(self, capsys):
        code, out = run_cli(capsys, *self.VERIFY9_ARGV)
        assert code == 0
        printed = [r["printed"]["verdict"] for r in json.loads(out)["reports"]
                   if "printed" in r]
        assert printed.count("mismatch") == 198
        assert printed.count("not-evaluable") == 40
        assert self.sha256(out) == self.VERIFY9_SHA256

    def test_verify_json_n12(self, capsys):
        code, out = run_cli(capsys, *self.VERIFY12_ARGV)
        assert code == 0
        assert self.sha256(out) == self.VERIFY12_SHA256

    @pytest.mark.parametrize("kind,n", sorted(MATRIX_SHA256))
    def test_diamagnetic_matrices(self, capsys, kind, n):
        outs = []
        for m in range(-(n - 1), n):
            code, out = run_cli(capsys, "compute", kind, str(n), str(m))
            assert code == 0
            outs.append(out)
        assert self.sha256("".join(outs)) == self.MATRIX_SHA256[kind, n]
