import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest

CLI = [sys.executable, "-m", "revprime.cli"]
SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


def cli_env(env=None):
    """The environment of a CLI child: this one plus env, with src first on
    PYTHONPATH so that the child imports this checkout, installed or not."""
    full_env = dict(os.environ)
    full_env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, full_env.get("PYTHONPATH")]))
    full_env.update(env or {})
    return full_env


def run_cli(*args, env=None):
    return subprocess.run(
        CLI + list(args), capture_output=True, text=True, env=cli_env(env)
    )


def test_enumerate_includes_known_pair():
    res = run_cli("enumerate", "--base", "10", "--limit", "40")
    assert res.returncode == 0
    lines = res.stdout.splitlines()
    assert lines[0] == "n,p,weight,coprime"
    assert any(line.startswith("32,23,") for line in lines)


def test_enumerate_empty_is_header_only():
    res = run_cli("enumerate", "--base", "10", "--limit", "1")
    assert res.returncode == 0
    assert res.stdout == "n,p,weight,coprime\n"


def test_enumerate_bad_base_exits_2():
    res = run_cli("enumerate", "--base", "1", "--limit", "5")
    assert res.returncode == 2


def test_count_ap_vanishing_row():
    res = run_cli("count-ap", "--x", "1000", "--q", "2", "--a", "0")
    assert res.returncode == 0
    row = res.stdout.splitlines()[1].split(",")
    assert float(row[2]) == 0.0 and float(row[3]) == 0.0


def test_count_ap_grid_row_count():
    res = run_cli("count-ap", "--x", "1e3,1e4", "--q", "1..3", "--a", "0")
    rows = res.stdout.splitlines()
    assert len(rows) == 1 + 2 * 3  # header + |x| * |q| * |a|


def test_json_format_one_object_per_line():
    res = run_cli("--format", "json", "count-ap", "--x", "100", "--q", "1", "--a", "0")
    lines = res.stdout.splitlines()
    assert len(lines) == 1
    obj = json.loads(lines[0])
    assert obj["command"] == "count-ap"
    assert "observed" in obj and "ratio" in obj


def test_byte_identical_reruns():
    args = ("count-ap", "--x", "1e4", "--q", "7", "--a", "0..6")
    first = run_cli(*args)
    second = run_cli(*args)
    assert first.stdout == second.stdout
    probe = ("circle", "--op", "probe", "--N", "10000", "--samples", "5", "--seed", "3")
    assert run_cli(*probe).stdout == run_cli(*probe).stdout


def test_represent_r0k_600():
    res = run_cli("represent", "--family", "r0k", "--k", "2", "--n", "600")
    row = res.stdout.splitlines()[1].split(",")
    assert float(row[2]) == 0.0
    assert row[5] == "exact"


def test_represent_rsquare_prediction_matches_library():
    from revprime.digits import Base
    from revprime.representations import representation_count

    res = run_cli("represent", "--family", "rsquare", "--n", "1000")
    row = res.stdout.splitlines()[1].split(",")
    profile = representation_count(1000, "rsquare", Base(10))
    assert math.isclose(float(row[3]), profile.predicted, rel_tol=1e-15)


def test_represent_exceptions_count():
    res = run_cli("represent", "--family", "r11", "--n", "4..100", "--exceptions")
    row = res.stdout.splitlines()[1].split(",")
    assert float(row[2]) == 5.0  # {2, 4, 6, 8, 52}


def test_represent_exceptions_rejects_other_families():
    # the exceptional set is r11's; another family must not print r11's count
    res = run_cli("represent", "--family", "r12", "--n", "1000", "--exceptions")
    assert res.returncode == 2
    assert res.stdout == ""
    assert "'r12'" in res.stderr and "Traceback" not in res.stderr


def test_represent_exceptions_does_not_expand_the_target_list(monkeypatch, capsys):
    # --exceptions reads only the largest target: a range of a million
    # targets must cost no more memory than the one target (a list of them
    # would hold about 36 MB); the count itself is stubbed out
    import tracemalloc

    from revprime import cli, representations

    monkeypatch.setattr(representations, "count_exceptional_evens", lambda x, base: 0)
    peaks = []
    for targets in ("1000000", "4..1000000"):
        tracemalloc.start()
        try:
            assert cli.main(["represent", "--family", "r11", "--n", targets, "--exceptions"]) == 0
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    rows = capsys.readouterr().out.splitlines()
    assert rows[1] == rows[3] and "x=1000000" in rows[1]
    assert peaks[1] < peaks[0] + 2**20


def test_partition_command():
    res = run_cli("partition", "--digits", "2", "--eta", "2", "--r", "71")
    row = res.stdout.splitlines()[1].split(",")
    assert math.isclose(float(row[2]), math.log(17), rel_tol=1e-12)


@pytest.mark.parametrize("args, stdout", [
    ("--base 10 --digits 6 --eta 2 --r 37 --q 7 --a 3",
     "command,params,observed,predicted,ratio,provenance\n"
     "partition,L=6;a=3;base=10;eta=2;q=7;r=37,1600.5840390408578,1428.5714285714287,"
     "1.1204088273286004,exact\n"),
    ("--base 10 --digits 5 --eta 1 --r 3 --q 1000 --a -1",
     "command,params,observed,predicted,ratio,provenance\n"
     "partition,L=5;a=-1;base=10;eta=1;q=1000;r=3,11.512155168367963,25,"
     "0.46048620673471852,exact\n"),
    ("--base 6 --digits 7 --eta 1 --r 2 --q 5 --a 1 --format json",
     '{"command": "partition", "observed": "0", "params": "L=7;a=1;base=6;eta=1;q=5;r=2", '
     '"predicted": "0", "provenance": "exact", "ratio": "nan"}\n'),
    ("--base 3 --digits 8 --eta 2 --r 5 --q 30 --a 41 --format json",
     '{"command": "partition", "observed": "51.490210593154451", '
     '"params": "L=8;a=41;base=3;eta=2;q=30;r=5", "predicted": "72.900000000000006", '
     '"provenance": "exact", "ratio": "0.70631290251240664"}\n'),
    # b^L - 1 = 1: the one table both sides read is asked for at least 2
    ("--base 2 --digits 1 --eta 1 --r 1",
     "command,params,observed,predicted,ratio,provenance\n"
     "partition,L=1;a=0;base=2;eta=1;q=1;r=1,0,1,0,exact\n"),
], ids=["b10-csv", "b10-negative-a", "b6-json-zero-main-term", "b3-json", "b2-one-digit"])
@pytest.mark.filterwarnings("ignore::revprime.errors.ModulusRangeWarning")
def test_partition_stdout_is_pinned(args, stdout, capsys):
    # no benchmark workload runs partition, so its stdout is pinned here
    from revprime import cli

    assert cli.main(["partition"] + args.split()) == 0
    assert capsys.readouterr().out == stdout


def test_circle_parseval_row():
    res = run_cli("circle", "--op", "parseval", "--N", "1000")
    header, row = res.stdout.splitlines()
    assert header == "N,lhs,rhs,scaled"
    vals = row.split(",")
    assert math.isclose(float(vals[1]), float(vals[2]), rel_tol=1e-6)


def test_schnirelmann_gap_row():
    res = run_cli("schnirelmann", "--op", "gap", "--i", "2", "--digits", "2")
    row = res.stdout.splitlines()[1].split(",")
    assert row[2] == "12" and row[3] == "24" and row[4] == "0"


def test_verify_identities_suite():
    res = run_cli("verify", "--suite", "identities")
    assert res.returncode == 0
    lines = res.stdout.splitlines()
    assert len(lines) == 4 and all(line.startswith("PASS") for line in lines)


def test_verify_unknown_suite():
    res = run_cli("verify", "--suite", "bogus")
    assert res.returncode == 2
    assert "available" in res.stderr


def test_verify_missing_fixtures():
    res = run_cli("verify", "--suite", "asymptotics", "--fixtures", "/no/such/file")
    assert res.returncode == 2
    assert "fixtures" in res.stderr


def test_readme_examples_parse():
    # every `revprime ...` line of README's code blocks, its comment
    # stripped, is a command line that the parser accepts
    import re
    import shlex

    from revprime import cli

    with open(os.path.join(os.path.dirname(SRC), "README.md")) as fh:
        blocks = re.findall(r"^```[^\n]*\n(.*?)^```", fh.read(), re.M | re.S)
    examples = [shlex.split(line.partition("#")[0]) for block in blocks for line in block.splitlines()
                if line.startswith("revprime ")]
    assert examples
    for argv in examples:
        try:
            cli.build_parser().parse_args(argv[1:])
        except SystemExit:
            pytest.fail(f"README example does not parse: {' '.join(argv)}")


def test_resource_error_exit_3():
    res = run_cli("enumerate", "--limit", str(10**18))
    assert res.returncode == 3
    assert "resource" in res.stderr.lower()


@pytest.mark.parametrize("exc,message", [
    (MemoryError(), "out of memory"),
    (MemoryError("Unable to allocate 22.4 GiB"), "Unable to allocate 22.4 GiB"),
])
def test_memory_error_exits_3(exc, message, monkeypatch, capsys):
    # an allocation failure anywhere stays inside the exit-code contract
    from revprime import cli, sieve

    def fail(*args, **kwargs):
        raise exc

    monkeypatch.setattr(sieve, "reversed_prime_arrays", fail)
    assert cli.main(["enumerate", "--limit", "100"]) == 3
    out, err = capsys.readouterr()
    assert out == "" and err == f"resource error: {message}\n"


def test_count_ap_modulus_past_int64_exits_2():
    res = run_cli("count-ap", "--x", "100", "--q", "1e19", "--a", "0")
    assert res.returncode == 2
    assert res.stderr.splitlines() == [
        "usage error: q must lie in [1, 2^63), got 10000000000000000000"
    ]


def test_rsquare_past_the_length_ceiling_fails_fast():
    # a squarefree mask of 10^12 + 1 bytes is refused before it is allocated
    res = subprocess.run(
        CLI + ["represent", "--family", "rsquare", "--n", "1e12"],
        capture_output=True, text=True, timeout=30, env=cli_env(),
    )
    assert res.returncode == 3
    assert "squarefree mask" in res.stderr and "Traceback" not in res.stderr


def test_cache_roundtrip_via_env(tmp_path):
    env = {"REVPRIME_CACHE_DIR": str(tmp_path)}
    first = run_cli("enumerate", "--limit", "1000", env=env)
    assert first.returncode == 0
    assert (tmp_path / "prime_table.bin").exists()
    second = run_cli("enumerate", "--limit", "1000", env=env)
    assert second.stdout == first.stdout


def test_config_file_precedence(tmp_path):
    cfg = tmp_path / "conf.txt"
    cfg.write_text("base = 6\n")
    res = run_cli("enumerate", "--limit", "10", "--config", str(cfg))
    # base 6 from the file: 7 = 11_6 reverses to itself
    assert any(line.startswith("7,7,") for line in res.stdout.splitlines())
    # an explicit flag beats the file
    res = run_cli("enumerate", "--limit", "10", "--config", str(cfg), "--base", "10")
    assert any(line.startswith("2,2,") for line in res.stdout.splitlines())


def test_runtime_goes_to_stderr_not_stdout():
    res = run_cli("count-ap", "--x", "100", "--q", "1", "--a", "0")
    assert "runtime_ms" in res.stderr
    assert "runtime_ms" not in res.stdout


def test_verify_failure_exits_1(tmp_path, capsys):
    # zeroed tolerances force criterion 7 to fail; run in-process so the
    # session's cached tables are reused
    from revprime import cli, verify

    doctored = tmp_path / "fixtures.txt"
    lines = []
    for key, value in verify.load_fixtures(verify.default_fixtures_path()).items():
        lines.append(f"{key} = {0.0 if key.startswith('theta_ratio_tol') else value}")
    doctored.write_text("\n".join(lines))
    code = cli.main(
        ["verify", "--suite", "asymptotics", "--fixtures", str(doctored)]
    )
    out = capsys.readouterr().out
    assert code == 1
    assert "FAIL 7-progression-convergence" in out


def test_verify_prints_each_line_as_its_check_ends(monkeypatch, capsys):
    # the line of a check is out before the next check starts, and a failed
    # check before a passing one still decides the exit code
    from revprime import cli, verify

    seen = []

    def second():
        seen.append(capsys.readouterr().out)
        return True, "after"

    monkeypatch.setattr(verify, "_CHECKS", [("a", (), lambda: (False, "first")), ("b", (), second)])
    monkeypatch.setitem(verify.SUITES, "pair", ["a", "b"])
    assert cli.main(["verify", "--suite", "pair"]) == 1
    assert seen == ["FAIL a: first\n"]
    assert capsys.readouterr().out == "PASS b: after\n"


@pytest.mark.parametrize("value", ["nan", "inf", "-inf", "abc", "", None], ids=repr)
def test_verify_refuses_a_bad_fixtures_line(value, tmp_path, capsys):
    # a nan tolerance would pass every check it bounds, and a line that is
    # not key = value (value None) or holds no finite float is named by its
    # number; both are usage errors before any check runs
    from revprime import cli, verify

    with open(verify.default_fixtures_path()) as fh:
        lines = fh.read().splitlines()
    number = next(i for i, line in enumerate(lines, 1) if line.startswith("theta_ratio_tol"))
    key = lines[number - 1].partition("=")[0]
    lines[number - 1] = key if value is None else f"{key}= {value}"
    doctored = tmp_path / "fixtures.txt"
    doctored.write_text("\n".join(lines))
    with pytest.raises(ValueError, match=f"line {number} "):
        verify.load_fixtures(str(doctored))
    code = cli.main(["verify", "--suite", "asymptotics", "--fixtures", str(doctored)])
    out, err = capsys.readouterr()
    assert code == 2 and out == "" and err.startswith("usage error: ") and f"line {number} " in err
    assert "runtime_ms" not in err


def test_closed_stdout_pipe_exits_without_traceback():
    # a reader that stops early, like `enumerate --limit 1000000 | head -1`
    proc = subprocess.Popen(
        CLI + ["enumerate", "--limit", "1000000"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, env=cli_env(),
    )
    assert proc.stdout.readline() == "n,p,weight,coprime\n"
    proc.stdout.close()
    stderr = proc.stderr.read()
    assert proc.wait() == 3
    assert "Traceback" not in stderr


# ---------------------------------------------------------------------------
# rows stream: each is written as it is made, and none is held
# ---------------------------------------------------------------------------

def _cap_address_space():
    # run in the child before exec: 1.5 GB, as `ulimit -v 1500000`
    import resource

    resource.setrlimit(resource.RLIMIT_AS, (1500000 * 1024, 1500000 * 1024))


# one BLAS thread: OpenBLAS reserves buffers per thread when numpy is
# imported, which on a host with many cores could pass the cap on its own
CAPPED_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"}


def test_count_ap_streams_a_residue_range_of_billions():
    # the residues are never listed, so rows arrive under a cap that a list
    # of 3e9 of them would pass long before its first row
    proc = subprocess.Popen(
        CLI + ["count-ap", "--x", "100", "--a", "0..3e9"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, env=cli_env(CAPPED_ENV),
        preexec_fn=_cap_address_space,
    )
    assert proc.stdout.readline() == "command,params,observed,predicted,ratio,provenance\n"
    rows = [proc.stdout.readline() for _ in range(2)]
    assert [row.split(",")[1] for row in rows] == ["a=0;base=10;q=1;x=100", "a=1;base=10;q=1;x=100"]
    proc.stdout.close()
    stderr = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait() == 3
    assert "Traceback" not in stderr


def test_count_ap_checks_a_modulus_range_on_its_ends():
    # refused on the range's first end before the moduli are listed; under
    # the cap a list of 3e9 of them would end in an allocation failure
    res = subprocess.run(
        CLI + ["count-ap", "--x", "100", "--q", "0..3e9"],
        capture_output=True, text=True, env=cli_env(CAPPED_ENV), preexec_fn=_cap_address_space,
        timeout=60,
    )
    assert res.returncode == 2 and res.stdout == ""
    assert res.stderr == "usage error: q must lie in [1, 2^63), got 0\n"


def test_mink_past_the_ceiling_is_refused_under_a_memory_cap():
    # the reversed primes' ceiling is met before the dense pool is allocated
    res = subprocess.run(
        CLI + ["schnirelmann", "--op", "mink", "--n", "2147483647"],
        capture_output=True, text=True, env=cli_env(CAPPED_ENV), preexec_fn=_cap_address_space,
    )
    assert res.returncode == 3 and res.stdout == ""
    assert res.stderr.startswith("resource error: ") and "ceiling" in res.stderr.splitlines()[0]


def test_represent_writes_each_row_as_it_is_made(monkeypatch):
    # target i is counted after the header and the rows of targets 0..i-1
    # are written, in csv and in json
    import io

    from revprime import cli, representations

    predicted = representations._predicted
    for fmt, header in (("csv", 1), ("json", 0)):
        out, written = io.StringIO(), []

        def spy(*args, **kwargs):
            written.append(out.getvalue().count("\n"))
            return predicted(*args, **kwargs)

        monkeypatch.setattr(representations, "_predicted", spy)
        monkeypatch.setattr(sys, "stdout", out)
        assert cli.main(["represent", "--family", "r11", "--n", "100..120", "--format", fmt]) == 0
        assert written == [header + i for i in range(21)]
        assert out.getvalue().count("\n") == header + 21


# a child's ru_maxrss starts at its parent's resident set when it forks, so
# each CLI run is started from a small launcher that imports no numpy
_PEAK_RSS_LAUNCHER = """
import os, subprocess, sys
proc = subprocess.Popen(sys.argv[1:], stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
_, status, usage = os.wait4(proc.pid, 0)
proc.returncode = os.waitstatus_to_exitcode(status)
print(proc.returncode, usage.ru_maxrss)
"""


def _child_peak_rss_mb(*args):
    """The peak resident set of one CLI child, from its rusage."""
    res = subprocess.run(
        [sys.executable, "-c", _PEAK_RSS_LAUNCHER, *CLI, *args],
        capture_output=True, text=True, env=cli_env(), check=True,
    )
    code, peak_kb = map(int, res.stdout.split())  # KB on Linux
    assert code == 0, args
    return peak_kb / 1024


@pytest.mark.skipif(not hasattr(os, "wait4"), reason="needs os.wait4")
@pytest.mark.parametrize("many, one, slack_mb", [
    (("enumerate", "--limit", "1e6"), ("enumerate", "--limit", "1e4"), 10),
    (("represent", "--family", "rsquare", "--n", "2..20000"),
     ("represent", "--family", "rsquare", "--n", "20000"), 5),
])
def test_peak_memory_is_flat_in_the_number_of_rows(many, one, slack_mb):
    assert _child_peak_rss_mb(*many) < _child_peak_rss_mb(*one) + slack_mb


@pytest.mark.skipif(not hasattr(os, "wait4"), reason="needs os.wait4")
def test_a_build_holds_only_the_pieces_it_keeps():
    # count-ap at 1.2e8 reverses the 9-digit primes ending in 1 one sieve
    # segment at a time and keeps only the coprime n <= x of each piece: a
    # build that reversed the whole top block before its cut peaked at 697 MB
    assert _child_peak_rss_mb("count-ap", "--x", "120000000", "--q", "1") < 400


def test_window_cross_check_failure_exits_1(monkeypatch, capsys):
    # a disagreement between the two window enumerations is a failed check
    from revprime import cli, progressions

    monkeypatch.setattr(progressions, "_prime_side_window", lambda *args: (0.0, 0))
    code = cli.main(["partition", "--digits", "2", "--eta", "2", "--r", "71"])
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith("verification error: window formulations disagree")
    assert len(err.splitlines()) == 1


def test_unreadable_config_exits_2(tmp_path):
    res = run_cli("enumerate", "--limit", "10", "--config", str(tmp_path / "missing.conf"))
    assert res.returncode == 2
    assert res.stderr.startswith("usage error: cannot read --config file")
    assert len(res.stderr.splitlines()) == 1


def test_cache_dir_io_error_exits_3(tmp_path):
    plain = tmp_path / "plain"
    plain.write_text("")
    res = run_cli("enumerate", "--limit", "10", "--cache-dir", str(plain / "cache"))
    assert res.returncode == 3
    assert res.stderr.startswith("resource error: cache directory")
    assert len(res.stderr.splitlines()) == 1


def _fnv1a64(data):
    h = 0xCBF29CE484222325
    for byte in data:
        h = ((h ^ byte) * 0x100000001B3) & ((1 << 64) - 1)
    return h


def test_version_1_cache_is_rebuilt(tmp_path):
    # a table stored by the FNV-1a format (version 1) is a cache miss
    from revprime.sieve import CACHE_MAGIC, CACHE_VERSION, cache_load, sieve_primes

    table = sieve_primes(10**4)
    payload = (
        CACHE_MAGIC
        + (1).to_bytes(4, "little")
        + table.limit.to_bytes(8, "little")
        + np.packbits(table.odd_mask, bitorder="little").tobytes()
    )
    path = tmp_path / "prime_table.bin"
    path.write_bytes(payload + _fnv1a64(payload).to_bytes(8, "little"))
    res = run_cli("enumerate", "--limit", "1000", "--cache-dir", str(tmp_path))
    assert res.returncode == 0, res.stderr
    assert res.stdout == run_cli("enumerate", "--limit", "1000").stdout
    raw = path.read_bytes()
    assert int.from_bytes(raw[len(CACHE_MAGIC) : len(CACHE_MAGIC) + 4], "little") == CACHE_VERSION
    assert cache_load(path).limit == 999


def test_overlapping_arcs_fail_before_building():
    # about 7e9 arcs at Q = (log 50000)^5; 1/148283 and 1/148282 overlap
    res = subprocess.run(
        CLI + ["circle", "--op", "arcs", "--N", "50000", "--B", "5"],
        capture_output=True, text=True, timeout=30, env=cli_env(),
    )
    assert res.returncode == 2
    assert "overlap" in res.stderr


def test_int_list_parses_exact_integers():
    from revprime.cli import _int_ranges, int_list

    assert int_list(_int_ranges("600")) == [600]
    assert int_list(_int_ranges("1..3,7")) == [1, 2, 3, 7]
    assert int_list(_int_ranges("1e4, 1.5e3")) == [10000, 1500]
    # plain integers never pass through a float
    assert int_list(_int_ranges("9007199254740993")) == [2**53 + 1]
    assert int_list(_int_ranges("9223372036854775807..9223372036854775808")) == [2**63 - 1, 2**63]
    assert int_list(_int_ranges("1e30")) == [10**30]


@pytest.mark.parametrize(
    "text,named", [
        ("100.5", "'100.5'"),
        ("1e-1", "'1e-1'"),
        ("nan", "'nan'"),
        ("1e5000", "'1e5000'"),
        ("10..5", "'10..5'"),
        ("4..1.5", "'1.5'"),
        ("abc", "'abc'"),
    ],
)
def test_int_list_rejects_what_is_not_an_integer(text, named):
    from revprime.cli import _int_ranges, int_list

    with pytest.raises(ValueError, match=named):
        int_list(_int_ranges(text))


def test_count_ap_keeps_large_moduli_exact():
    res = run_cli("count-ap", "--x", "100", "--q", "1000000000000000003,9223372036854775807")
    assert res.returncode == 0
    params = [row.split(",")[1] for row in res.stdout.splitlines()[1:]]
    assert params == [
        "a=0;base=10;q=1000000000000000003;x=100",
        "a=0;base=10;q=9223372036854775807;x=100",
    ]


@pytest.mark.parametrize("n,named", [("100.5", "'100.5'"), ("10..5", "'10..5'")])
def test_represent_bad_targets_exit_2(n, named):
    res = run_cli("represent", "--family", "r11", "--n", n)
    assert res.returncode == 2
    assert res.stdout == ""
    assert named in res.stderr and "Traceback" not in res.stderr


# stdout of `represent --n 100001..100040`, recorded from the one-target-at-a-
# time implementation that preceded the batch
REPRESENT_SHA256 = {
    "r12": "2154a3b5124a769400de5d42550b3e20ab409cb484ccf08c407b195c325ab954",
    "r11": "5a26818a75abbf4e838063e14014078512b80dd4de474cd1a1e2d8e01b96d787",
}


@pytest.mark.parametrize("family", sorted(REPRESENT_SHA256))
def test_represent_range_stdout_is_pinned(family):
    import hashlib

    res = run_cli("represent", "--family", family, "--n", "100001..100040")
    assert res.returncode == 0
    assert hashlib.sha256(res.stdout.encode()).hexdigest() == REPRESENT_SHA256[family]


# stdout of represent runs that no benchmark workload covers, recorded from
# the implementation that built both indicators again for every target
REPRESENT_RUNS_SHA256 = {
    ("--base", "2", "represent", "--family", "r21", "--n", "12001..12006"):  # FFT path
        "a3fbccb55e7ea30ef23aa3c354e25692b2997818c31fbcf60fd900841ab4fe43",
    ("--base", "30", "represent", "--family", "r0k", "--k", "3", "--n", "20001..20004"):
        "1d326d19c61306faf7f0915c0eebf62d069b4969f1e17f493e528e31a3a363f8",
    # the FFT length doubles between N = 65535 and N = 65536
    ("represent", "--family", "r12", "--n", "65530..65541,65541,65537,65533,65529,65536"):
        "48c7c118a905f18f7c377e75b1dfe71fe954ce4233e735c71490dedf57756f8e",
    ("--base", "3", "represent", "--family", "rsquare", "--n", "2..300,1000,999"):
        "d91f24abd7231cafab8380fcde4c91846765be8c6edd6e4a6d939e360236adeb",
    ("--format", "json", "represent", "--family", "r11", "--n", "100001..100006,100003"):
        "2d7d32022f7f7c54ad1821ba2ff7436898ea98f960f855d4b8accb358e8a5233",
    # recorded from the implementation that built rsquare's inputs and the
    # s0k main term again for every target; the last one ran the exact
    # integer fallback of s0k at every target
    ("--base", "10", "represent", "--family", "rsquare", "--n", "99990..100010,100005,77"):
        "24cd4b5b1f541c689de76e216d24a1af5d7e80c23a2f4099e27fbb5c5b4f8e57",
    ("--base", "30", "represent", "--family", "rsquare", "--n", "2..3000"):
        "fb080a54e567bf4d7072ace185fbef32050744bfb97a98f70e8a832925949d49",
    ("--base", "10", "represent", "--family", "r0k", "--k", "4", "--n", "3000..3009"):
        "d3240202c1cf970fd12547aaf8dd1629afa3e3d799e1279e3ad5859415f3cb79",
    ("--base", "2", "represent", "--family", "r0k", "--k", "6", "--n", "11590..11593"):
        "e017f1d03543e3b10b9051be7c5575af4d2193139c0dd52118692629f63ae17d",
}


@pytest.mark.parametrize("args", sorted(REPRESENT_RUNS_SHA256))
def test_represent_runs_stdout_is_pinned(args):
    import hashlib

    res = run_cli(*args)
    assert res.returncode == 0
    assert hashlib.sha256(res.stdout.encode()).hexdigest() == REPRESENT_RUNS_SHA256[args]


@pytest.mark.parametrize("family,n", [
    ("r11", "2..1000"),
    ("r11", "100000..100003"),
    ("r12", "100000..100003"),
    ("r21", "100000..100003"),
    ("r0k", "2..1000"),
])
def test_represent_batch_sieves_and_stores_once(family, n, tmp_path, monkeypatch, fresh_session, capsys):
    # the batch requests one table that reaches its largest target and the
    # reversed primes' sources before it builds any factor
    from revprime import cli, sieve

    calls = _count_calls(monkeypatch, (sieve, "sieve_primes"), (sieve, "cache_store"))
    argv = ["represent", "--family", family, "--n", n, "--cache-dir", str(tmp_path)]
    if family == "r0k":
        argv += ["--k", "2"]
    assert cli.main(argv) == 0
    capsys.readouterr()
    assert calls == {"sieve_primes": 1, "cache_store": 1}


@pytest.mark.parametrize("n", ["2e5", "7000000"])
def test_exceptions_sieve_and_store_once(n, tmp_path, monkeypatch, fresh_session, capsys):
    # the sweep requests one table at the larger of x and the reversed
    # primes' sources (b^L - 1 >= x) before their build, which reads it
    from revprime import cli, sieve

    calls = _count_calls(monkeypatch, (sieve, "sieve_primes"), (sieve, "cache_store"))
    argv = ["represent", "--family", "r11", "--n", n, "--exceptions", "--cache-dir", str(tmp_path)]
    assert cli.main(argv) == 0
    assert len(capsys.readouterr().out.splitlines()) == 2
    assert calls == {"sieve_primes": 1, "cache_store": 1}


def _count_calls(monkeypatch, *spied):
    """The number of calls of each module.name, for the (module, name)
    pairs in spied, counted from now on."""
    calls = {name: 0 for _, name in spied}
    for module, name in spied:
        original = getattr(module, name)

        def spy(*args, _original=original, _name=name, **kwargs):
            calls[_name] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(module, name, spy)
    return calls


@pytest.mark.parametrize("base,n", [("10", "2..1000"), ("30", "2..3000"), ("2", "1000,2,999")])
def test_rsquare_batch_builds_its_inputs_once(base, n, tmp_path, monkeypatch, fresh_session, capsys):
    # one squarefree mask and one reversed-prime build at the largest
    # target: one sieve and one cache write for the whole batch
    from revprime import cli, representations, sieve

    calls = _count_calls(
        monkeypatch, (sieve, "sieve_primes"), (sieve, "cache_store"), (representations, "squarefree_mask")
    )
    argv = ["--base", base, "represent", "--family", "rsquare", "--n", n, "--cache-dir", str(tmp_path)]
    assert cli.main(argv) == 0
    assert len(capsys.readouterr().out.splitlines()) == 1 + len(cli.int_list(cli._int_ranges(n)))
    assert calls == {"sieve_primes": 1, "cache_store": 1, "squarefree_mask": 1}


@pytest.mark.parametrize("k,n", [(2, "2..1000"), (4, "3000..3009"), (6, "5000,4990,5000")])
def test_r0k_batch_builds_its_main_term_once(k, n, monkeypatch, fresh_session, capsys):
    # the s0k table is built once, at the largest target, from one list of
    # B's intervals
    from revprime import cli, representations

    calls = _count_calls(
        monkeypatch, (representations, "coprime_leading_intervals"), (representations, "_composition_table")
    )
    assert cli.main(["represent", "--family", "r0k", "--k", str(k), "--n", n]) == 0
    capsys.readouterr()
    assert calls == {"coprime_leading_intervals": 1, "_composition_table": 1}


@pytest.mark.parametrize("family,n,tables", [
    ("r12", "3..300", 1), ("r21", "100001..100010", 1), ("r12", "5000,4990,5000", 1), ("r11", "2..300", 0),
])
def test_ternary_batch_builds_its_main_term_once(family, n, tables, monkeypatch, fresh_session, capsys):
    # r12 and r21 read every target's composition count from one table,
    # built at the largest target from one list of B's intervals, and make
    # no per-target composition count; r11 counts #B(N) and builds no table
    from revprime import cli, representations

    calls = _count_calls(
        monkeypatch,
        (representations, "coprime_leading_intervals"),
        (representations, "_composition_table"),
        (representations, "composition_count"),
        (representations, "composition_counts"),
    )
    assert cli.main(["represent", "--family", family, "--n", n]) == 0
    assert len(capsys.readouterr().out.splitlines()) == 1 + len(cli.int_list(cli._int_ranges(n)))
    assert calls == {
        "coprime_leading_intervals": tables, "_composition_table": tables,
        "composition_count": 0, "composition_counts": 0,
    }


# stdout recorded from the implementation that found exceptional evens by an
# FFT reach step, and took the curve's fractional parts with `% 1.0`; the
# curves at 100 and 512 samples from the one that took a cos and a sin per
# term at every alpha
PINNED_SHA256 = {
    ("--base", "10", "represent", "--family", "r11", "--n", "200000", "--exceptions"):
        "622363e8fe385cdabf0c9939475d77296daf8dbcd8c21f13148d281859d81f38",
    ("--base", "2", "represent", "--family", "r11", "--n", "200000", "--exceptions"):
        "0003f4c66286d2da7f17bd4090419f531fe4fedb413a24eae1d2dac8fc43ba8d",
    ("circle", "--op", "curve", "--N", "20000", "--samples", "64"):
        "8a2ddedff83106f5e74dfb8e7f6120b5ff84278d49c1ec942b44bd2b2a1e7c8d",
    ("circle", "--op", "curve", "--N", "20000", "--samples", "100"):
        "4194ca2de25e50af76ccd6a7b1831dab4e009ba7d885c1d01066dee9969133ee",
    ("circle", "--op", "curve", "--N", "20000", "--samples", "512"):
        "b23c9ba43353f7e99d64e6c32dbc7696e40cb3e6767f84cc0ad246ed4f00dfe7",
}


@pytest.mark.parametrize("args", sorted(PINNED_SHA256))
def test_exceptions_and_curve_stdout_is_pinned(args):
    import hashlib

    res = run_cli(*args)
    assert res.returncode == 0
    assert hashlib.sha256(res.stdout.encode()).hexdigest() == PINNED_SHA256[args]


# stdout of the commands and ops that no other test pins byte for byte,
# recorded from the implementation that still re-exported the library from
# the package namespace and built enumerate's rows from records
STDOUT_SHA256 = {
    ("enumerate", "--limit", "3000"):
        "10caefee363398195d51b3798c595e2272e0755a1226db69c575c653d2d61af0",
    ("enumerate", "--limit", "3000", "--coprime", "--format", "json"):
        "39d05df8da44255af41fcc5cc8170a9390b4fa138093f352fa6d33cb0ad098cc",
    ("--base", "7", "enumerate", "--limit", "3000"):
        "e6b64f0ce6f6b2ec5c78b90e13df3fc98aef916bd1642727984ba03dd795edb5",
    ("count-ap", "--x", "1e5,2e5", "--q", "1..10", "--a", "0..3"):
        "ec1ea376816dfad9d688df02742af3e496a0c128a90309df10e62cc81c579299",
    ("count-ap", "--x", "1e5", "--q", "7", "--a", "0..40"):
        "f3b89cb389b86c9f48f3fff9cd8745dc2596510be6c8f5bda3c0202fdde5612a",
    ("--format", "json", "count-ap", "--x", "1e5,2e5", "--q", "1..10", "--a", "0..3"):
        "512f32dd4c2ff742a9030844be5460b054e14ea7af6c20d29674a8d072e7148b",
    ("--base", "7", "partition", "--digits", "5", "--eta", "1", "--r", "3", "--q", "4", "--a", "1"):
        "7cf62111fd99553723d6d287fbe65ef0dda4a5cbf358e2a0bc8d5f01db3c55b1",
    ("circle", "--op", "arcs", "--N", "100000", "--B", "1"):
        "15dce199223e28322304b80e23c65ad6253a7fae344cb60982e625d4509fbfec",
    ("circle", "--op", "expsum", "--alpha", "0.3", "--N", "20000", "--kind", "prime"):
        "eaf67d5e747c10e4ddb5cb0f1eb1fcda5d5f7ea24b51882d1a7035ec81132f27",
    ("circle", "--op", "expsum", "--alpha", "0.3", "--N", "20000", "--kind", "reversed_prime_coprime"):
        "d72b5e15528804999a1fb8176697cb8ef008b21ad4bf148f67fac55978002dfd",
    ("circle", "--op", "residual", "--alpha", "0.3335", "--N", "20000"):
        "ca9c236205026c1d004e2488e3a8aa216f3c77cd3a554b1f9937dc6733b12800",
    ("circle", "--op", "residual", "--alpha", "0.3335", "--N", "20000", "--which", "S"):
        "8cd9123fe912e9b95bd02601824d6e0b5f315a012cf15ae2d72d3bb62e988622",
    ("circle", "--op", "weyl", "--beta", "0.25", "--N", "20000"):
        "053e20cccdafe4aa236810964da9762ab0c1e262ce1ffc357b6444266a444fd3",
    ("circle", "--op", "parseval", "--N", "20000"):
        "ce7eb8c5d2f0cecfdb28d1f80810926a8cc8aace5a2dd71dbb1f17b9234214d4",
    ("circle", "--op", "probe", "--N", "20000", "--samples", "50", "--seed", "7"):
        "eff06cd7b5f6d1edc7f229830e00c795b8a1734413e9a36d93268cfb8eb36e34",
    ("--format", "json", "circle", "--op", "gamma", "--q", "7", "--digits", "6", "--lam", "4"):
        "fae146deb280c5ee6c62be2a2821257516e4734922fa18d78a14cec2443c912f",
    ("schnirelmann", "--op", "gap", "--i", "2", "--digits", "3"):
        "134aca055ad7f94e721d5b5fcf5a36a6269fc8cc58e3ba3afcc3af019a34d7a3",
    ("--base", "2", "schnirelmann", "--op", "mink", "--n", "10001", "--kmax", "4"):
        "b99998bb41e78571d0688df2a3982fa0a8f1aca86e8985630abca020ad331e4d",
    ("--base", "30", "schnirelmann", "--op", "scan", "--lo", "100", "--hi", "3000"):
        "9f1a22589c01f33eedd33cb39a781419e539ce92ca9cd26f81f91085e4cdfac2",
    # recorded from the implementation whose s0k table was a rounded chain,
    # redone in Python big ints where its bound could not be trusted
    ("represent", "--family", "r0k", "--k", "4", "--n", "300000"):
        "8b3f7930916f103e93c56568a7045d587027895ff091df15bfa42575fde16ab1",
    ("represent", "--family", "r0k", "--k", "6", "--n", "20000..20003"):
        "1ca8fc6d5bb21a8e094fe438aefc9fb1ddfabca4e22a042571c77d0cdb546c7f",
    # recorded from the implementation whose composition tables took each
    # further B by a limb-split FFT convolution with a dense leading-digit mask
    ("represent", "--family", "r12", "--n", "100000..100009"):
        "b442073e609e805e4f86eb9709a768ac9af1f1499b196e3d81439a477ae888b4",
    ("--base", "6", "represent", "--family", "r12", "--n", "5000..5009"):
        "206d601b96c33760b58c71f1f6687e87ac4397ba4257260243ae4f51d35115cd",
    ("represent", "--family", "r21", "--n", "20001..20005"):
        "9bcffc2bc68f9a94b5dc50bcf625f1c47cef9727cbfe41ee062d7fd148e91039",
    ("represent", "--family", "r11", "--n", "117659..117668"):
        "e051f31285fa64c68edc7bac62d3b08af3b6e3681192f5b2967fe83bd800500c",
    ("represent", "--family", "rsquare", "--n", "2..300"):
        "e76593fdab2d9bfb114b361c3407a4f886a41ec8e7c8c4d2654eb42dd9344d96",
    ("circle", "--op", "expsum", "--alpha", "0.3", "--N", "20000", "--kind", "B_set"):
        "2626914349f353329e46143ab46ceb1bf17eb2fa21a9cd05018f6417a054295d",
    ("circle", "--op", "weyl", "--beta", "0.25", "--N", "20000", "--kind", "B_set"):
        "953b743e13e44571401093f2f95e42b16246539007b52d401022234b284db75f",
}


@pytest.mark.filterwarnings("ignore::revprime.errors.ModulusRangeWarning")
@pytest.mark.parametrize("args", sorted(STDOUT_SHA256), ids=" ".join)
def test_stdout_is_pinned(args, capsys):
    import hashlib

    from revprime import cli

    assert cli.main(list(args)) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == STDOUT_SHA256[args]


def test_modulus_sweep_warns_once():
    # 3944 of the 4000 (x, q) cells pass the guard q <= b^(L/4): one warning
    # names them all; the stdout sha256 was recorded with a warning per cell
    import hashlib

    res = run_cli("count-ap", "--x", "1e6", "--q", "1..4000")
    assert res.returncode == 0
    assert hashlib.sha256(res.stdout.encode()).hexdigest() == (
        "bf72c48f7e741ce2261b4fe17d09ab6427c8731ac60822c005216546f45f4df8"
    )
    warning = [line for line in res.stderr.splitlines() if not line.startswith("# runtime_ms")]
    assert len(warning) <= 2
    assert "ModulusRangeWarning: 3944 (x, q) cells" in warning[0] and "q=4000" in warning[0]


# every sieve_primes call, (limit, limit of the table it extends), of a
# command with a fresh cache directory; each sieve is stored once
SIEVE_CALLS = {
    ("circle", "--op", "curve", "--N", "7006387", "--samples", "1"): [(7006387, None), (9999999, 7006387)],
    ("represent", "--family", "r11", "--n", "7006387", "--exceptions"): [(9999999, None)],
    ("partition", "--digits", "7", "--eta", "1", "--r", "3"): [(9999999, None)],
    ("enumerate", "--limit", "1e5"): [(99999, None)],
    ("--base", "30", "schnirelmann", "--op", "scan", "--lo", "2", "--hi", "4000", "--kmax", "4"): [(26999, None)],
    ("represent", "--family", "r11", "--n", "117698"): [(999999, None)],
    # the 8-digit primes ending in 1 are sieved as one class, not by a
    # table to 10^8 - 1
    ("count-ap", "--x", "18329389", "--q", "1", "--a", "0"): [(9999999, None)],
    # the command with the most growth steps; check 9's request for 10^6
    # adds no odd number to the table to 999999, so it sieves nothing
    ("verify", "--suite", "all"): [
        (2000, None), (2047, 2000), (2186, 2047), (7775, 2186), (9999, 7775), (99999, 9999), (999999, 99999),
    ],
}


@pytest.mark.parametrize("args", list(SIEVE_CALLS), ids=" ".join)
def test_sieve_calls_are_pinned(args, tmp_path, monkeypatch, fresh_session, capsys):
    from revprime import cli, sieve

    real, calls = sieve.sieve_primes, []

    def spy(limit, *, extend=None):
        calls.append((limit, None if extend is None else extend.limit))
        return real(limit, extend=extend)

    monkeypatch.setattr(sieve, "sieve_primes", spy)
    stores = _count_calls(monkeypatch, (sieve, "cache_store"))
    assert cli.main([*args, "--cache-dir", str(tmp_path)]) == 0
    capsys.readouterr()
    assert calls == SIEVE_CALLS[args]
    assert stores == {"cache_store": len(calls)}


# every reversed-prime build, (x, require_coprime, entries made), of the
# commands of SIEVE_CALLS: the session keeps no build, so each
# reversed_prime_arrays call makes one, and it makes no entry past x and,
# for a coprime read, none that is not coprime to b^3 - b
BUILD_CALLS = {
    ("circle", "--op", "curve", "--N", "7006387", "--samples", "1"): [(7006387, True, 166684)],
    ("represent", "--family", "r11", "--n", "7006387", "--exceptions"): [(7006387, True, 166684)],
    ("partition", "--digits", "7", "--eta", "1", "--r", "3"): [(3999999, True, 166258)],
    ("enumerate", "--limit", "1e5"): [(100000, False, 9592)],
    ("--base", "30", "schnirelmann", "--op", "scan", "--lo", "2", "--hi", "4000", "--kmax", "4"): [(4000, False, 500)],
    ("represent", "--family", "r11", "--n", "117698"): [(117698, True, 5691)],
    # a plain build to this x makes 1725842 entries, and one to the end of
    # x's leading-digit group made 1938773
    ("count-ap", "--x", "18329389", "--q", "1", "--a", "0"): [(18329389, True, 771365)],
    # check 4 reads four times in each of bases 2, 3, 6 and 10; checks 5
    # and 7-10 read the rest, check 7 the largest
    ("verify", "--suite", "all"): [
        *[(2000, True, 301)] * 8, *[(2000, True, 175)] * 4, *[(2000, True, 192)] * 4,
        (600, True, 38), (6000, True, 310), (60000, True, 2427), (24, False, 7), (144, False, 29), (180, False, 27),
        (10000000, True, 297192), (1000, True, 75), (10000, True, 549), (1000, True, 75), (10000, True, 549),
        (100000, True, 4321), (1000000, True, 35208), (11000, True, 642),
    ],
}
assert list(BUILD_CALLS) == list(SIEVE_CALLS)


@pytest.mark.parametrize("args", list(BUILD_CALLS), ids=" ".join)
def test_build_calls_are_pinned(args, monkeypatch, fresh_session, capsys):
    from revprime import cli, sieve

    real, calls = sieve._build_blocks, []

    def spy(x, base, table, require_coprime):
        out = real(x, base, table, require_coprime)
        calls.append((x, require_coprime, len(out)))
        return out

    monkeypatch.setattr(sieve, "_build_blocks", spy)
    assert cli.main(list(args)) == 0
    capsys.readouterr()
    assert calls == BUILD_CALLS[args]


def test_top_block_classes_leave_the_table_below_them(tmp_path, fresh_session, capsys):
    # count-ap at 1.83e7 reads the 8-digit primes ending in 1: the cache
    # holds the table to 10^7 - 1, and no 10^8 odd mask (47.7 MB) is built
    import tracemalloc

    from revprime import cli, sieve

    tracemalloc.start()
    try:
        assert cli.main(["count-ap", "--x", "18329389", "--q", "1", "--a", "0",
                         "--cache-dir", str(tmp_path)]) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    capsys.readouterr()
    assert sieve.cache_load(tmp_path / "prime_table.bin").limit == 9999999
    assert peak < 100 * 2**20, peak


def test_importing_cli_binds_every_traced_layer():
    # the benchmark's traced child imports revprime.cli and then wraps each
    # LAYERS function by looking its module up in sys.modules: a module that
    # the import no longer loads would silently drop a layer from the trace
    import ast

    path = os.path.join(os.path.dirname(SRC), "perfbench", "tracing.py")
    with open(path) as fh:
        tree = ast.parse(fh.read())
    layers = next(
        ast.literal_eval(node.value) for node in tree.body
        if isinstance(node, ast.Assign) and [t.id for t in node.targets] == ["LAYERS"]
    )
    assert layers
    probe = (
        "import sys, revprime.cli\n"
        "for layer in sys.argv[1:]:\n"
        "    module, _, name = layer.rpartition('.')\n"
        "    if not callable(getattr(sys.modules.get('revprime.' + module), name, None)):\n"
        "        print(layer)\n"
    )
    res = subprocess.run([sys.executable, "-c", probe, *layers],
                         capture_output=True, text=True, env=cli_env())
    assert res.returncode == 0, res.stderr
    assert res.stdout == ""


def _refuse_to_sieve(limit, *, extend=None):
    raise AssertionError(f"sieved to {limit} with a warm cache")


@pytest.mark.parametrize("args", [
    ("partition", "--digits", "4", "--eta", "1", "--r", "3", "--q", "3"),
    ("circle", "--op", "expsum", "--kind", "prime", "--alpha", "0.25", "--N", "5000"),
    ("circle", "--op", "expsum", "--kind", "reversed_prime_coprime", "--alpha", "0.25", "--N", "5000"),
    ("circle", "--op", "residual", "--which", "S", "--alpha", "0.0", "--N", "5000"),
    ("circle", "--op", "parseval", "--N", "2000"),
    ("circle", "--op", "probe", "--N", "5000", "--samples", "3"),
    ("circle", "--op", "curve", "--N", "5000", "--samples", "4"),
    ("schnirelmann", "--op", "mink", "--n", "600"),
    ("schnirelmann", "--op", "scan", "--lo", "100", "--hi", "300"),
    ("schnirelmann", "--op", "gap", "--i", "2", "--digits", "2"),
])
def test_cache_dir_serves_every_prime_reading_command(args, tmp_path, monkeypatch, capsys):
    # a cold run stores the table; a warm one, in a session of its own with
    # no table in memory, reads it back instead of sieving and prints the same rows
    from revprime import cli, sieve

    argv = [*args, "--cache-dir", str(tmp_path)]
    assert cli.main(argv) == 0
    cold = capsys.readouterr().out
    assert (tmp_path / "prime_table.bin").exists()
    monkeypatch.setattr(sieve, "sieve_primes", _refuse_to_sieve)
    assert cli.main(argv) == 0
    assert capsys.readouterr().out == cold


@pytest.mark.parametrize("args", [
    ("represent", "--family", "r11", "--n", "3e9"),
    ("circle", "--op", "curve", "--N", "3e9"),
    ("circle", "--op", "parseval", "--N", "3e9"),
    ("circle", "--op", "residual", "--N", "3e9"),
    ("circle", "--op", "probe", "--N", "3e9"),
    ("circle", "--op", "expsum", "--kind", "prime", "--N", "3e9"),
    ("schnirelmann", "--op", "mink", "--n", "3e9"),
    ("schnirelmann", "--op", "scan", "--lo", "100", "--hi", "3e9"),
    ("represent", "--family", "r12", "--n", "3e9"),
    ("represent", "--family", "r0k", "--k", "3", "--n", "3e9"),
    ("represent", "--family", "rsquare", "--n", "3e9"),
    ("represent", "--family", "r11", "--n", "3e9", "--exceptions"),
    # in base 50000 the sources of reversed primes up to 3e5 need a sieve to
    # 50000^2 - 1, past the ceiling
    ("--base", "50000", "represent", "--family", "r11", "--n", "300000"),
    ("--base", "50000", "represent", "--family", "r12", "--n", "300000"),
    ("--base", "50000", "represent", "--family", "r21", "--n", "300000"),
    ("--base", "50000", "represent", "--family", "r0k", "--k", "3", "--n", "300000"),
    ("--base", "50000", "represent", "--family", "rsquare", "--n", "300000"),
    ("--base", "50000", "circle", "--op", "curve", "--N", "300000", "--samples", "2"),
])
def test_cache_dir_past_the_length_ceiling_fails_fast(args, tmp_path, monkeypatch, capsys):
    # a dense command refuses N >= 2^31, or reversed-prime sources past the
    # sieve ceiling, before it reads a prime, so those sources are never
    # sieved or stored
    from revprime import cli, sieve

    monkeypatch.setattr(sieve, "sieve_primes", _refuse_to_sieve)
    assert cli.main([*args, "--cache-dir", str(tmp_path)]) == 3
    assert "ceiling" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("args", [
    ("partition", "--digits", "7", "--eta", "9", "--r", "1"),
    ("represent", "--family", "r0k", "--k", "99", "--n", "1e6"),
    ("circle", "--op", "residual", "--N", "10"),
    ("circle", "--op", "residual", "--alpha", "0.437", "--N", "1e6"),
    ("count-ap", "--x", "1e7", "--q", "0"),
    ("schnirelmann", "--op", "mink", "--n", "1e6", "--kmax", "0"),
    ("schnirelmann", "--op", "mink", "--n", "1", "--kmax", "3"),
    ("schnirelmann", "--op", "scan", "--lo", "1", "--hi", "1e6"),
    ("represent", "--family", "r11", "--n", "1,1e6"),
    ("represent", "--family", "r12", "--n", "2,1e6"),
    ("represent", "--family", "r0k", "--k", "5", "--n", "4,1e6"),
    ("circle", "--op", "probe", "--N", "1e6", "--samples", "0"),
    ("circle", "--op", "probe", "--N", "10"),
    ("represent", "--family", "r11", "--n", "3", "--exceptions"),
    ("circle", "--op", "parseval", "--N", "1"),
    ("circle", "--op", "expsum", "--kind", "prime", "--N", "0"),
    ("circle", "--op", "curve", "--N", "0", "--samples", "4"),
    ("enumerate", "--limit", "0"),
    ("circle", "--op", "weyl", "--kind", "prime", "--N", "1000"),
    ("circle", "--op", "weyl", "--kind", "B_set", "--N", "1"),
])
def test_usage_error_comes_before_the_cache_step(args, tmp_path, monkeypatch, fresh_session, capsys):
    # each command checks its arguments first: a usage error sieves nothing
    # and leaves no table in the cache directory
    from revprime import cli, sieve

    monkeypatch.setattr(sieve, "sieve_primes", _refuse_to_sieve)
    assert cli.main([*args, "--cache-dir", str(tmp_path)]) == 2
    assert capsys.readouterr().err.startswith("usage error: ")
    assert list(tmp_path.iterdir()) == []


def test_cache_dir_is_touched_only_by_a_prime_read(tmp_path, capsys):
    # under a plain file the directory cannot be made: only a command that
    # reads primes finds out
    from revprime import cli

    plain = tmp_path / "plain"
    plain.write_text("")
    cache = str(plain / "cache")
    assert cli.main(["enumerate", "--limit", "0", "--cache-dir", cache]) == 2
    assert capsys.readouterr().err.startswith("usage error: ")
    assert cli.main(["circle", "--op", "arcs", "--cache-dir", cache]) == 0
    assert capsys.readouterr().out.startswith("a,q,lo,hi\n")


def test_short_cache_file_is_grown_not_resieved(tmp_path, monkeypatch):
    from revprime import cli, sieve

    assert cli.main(["enumerate", "--limit", "1000", "--cache-dir", str(tmp_path)]) == 0
    real, calls = sieve.sieve_primes, []

    def spy(limit, *, extend=None):
        calls.append((limit, None if extend is None else extend.limit))
        return real(limit, extend=extend)

    monkeypatch.setattr(sieve, "sieve_primes", spy)
    assert cli.main(["enumerate", "--limit", "1e5", "--cache-dir", str(tmp_path)]) == 0
    assert calls == [(99999, 999)]
    fresh = tmp_path / "fresh.bin"
    sieve.cache_store(fresh, real(99999))
    assert (tmp_path / "prime_table.bin").read_bytes() == fresh.read_bytes()


def test_main_restores_the_callers_session(tmp_path, fresh_session, capsys):
    # each command runs in its own session; the caller's is bound again
    # after it, as it was, whatever the exit code
    from revprime import cli, sieve

    assert cli.main(["enumerate", "--limit", "1000", "--cache-dir", str(tmp_path)]) == 0
    assert sieve._current.get() is fresh_session
    assert fresh_session == sieve.Session()
    assert cli.main(["enumerate", "--limit", "0", "--cache-dir", str(tmp_path)]) == 2
    assert sieve._current.get() is fresh_session
    assert cli.main(["represent", "--family", "r11", "--n", "3e9", "--cache-dir", str(tmp_path)]) == 3
    assert sieve._current.get() is fresh_session
    assert fresh_session == sieve.Session()
    capsys.readouterr()


@pytest.mark.parametrize("args", [
    ["enumerate", "--limit", "10", "--threads", "-4"],
    ["--threads", "-4", "enumerate", "--limit", "10"],
], ids=["flag", "flag-before-command"])
def test_negative_thread_count_exits_2(args):
    # --threads changes nothing, but is still checked
    res = run_cli(*args)
    assert res.returncode == 2
    assert res.stdout == ""
    assert res.stderr.startswith("usage error: threads must be >= 0")
    assert len(res.stderr.splitlines()) == 1


# a config line that is not a known key set to a valid value, and what the
# usage error names
BAD_CONFIG_LINES = {
    "format=xml": "'xml'",
    "base 7": "'base 7'",
    "bogus=1": "'bogus'",
    "threads=2": "'threads'",  # --threads is a flag only
}


@pytest.mark.parametrize("line", sorted(BAD_CONFIG_LINES))
def test_config_file_refuses_bad_input(line, tmp_path, capsys):
    from revprime import cli

    conf = tmp_path / "conf.txt"
    conf.write_text(f"# a comment\n\nseed = 3\n{line}\n")
    cache = tmp_path / "cache"
    assert cli.main(["enumerate", "--limit", "10", "--config", str(conf), "--cache-dir", str(cache)]) == 2
    out, err = capsys.readouterr()
    assert out == "" and not cache.exists()
    assert err.startswith("usage error: ") and BAD_CONFIG_LINES[line] in err
    assert len(err.splitlines()) == 1


@pytest.mark.parametrize("plain, enotation", [
    (("schnirelmann", "--op", "mink", "--n", "1000"), ("schnirelmann", "--op", "mink", "--n", "1e3")),
    (("circle", "--op", "curve", "--N", "10000", "--samples", "4"),
     ("circle", "--op", "curve", "--N", "1e4", "--samples", "4e0")),
    (("partition", "--digits", "3", "--eta", "1", "--r", "7"),
     ("partition", "--digits", "3e0", "--eta", "1", "--r", "0.7e1")),
    (("enumerate", "--limit", "300", "--base", "6"), ("enumerate", "--limit", "3e2", "--base", "6e0")),
])
def test_integer_flags_take_exact_e_notation(plain, enotation, capsys):
    from revprime import cli

    outputs = []
    for args in (plain, enotation):
        assert cli.main(list(args)) == 0
        outputs.append(capsys.readouterr().out)
    assert outputs[0] == outputs[1] and outputs[0].count("\n") > 1


def test_inexact_integer_flag_exits_2():
    res = run_cli("circle", "--op", "curve", "--N", "1.5e0")
    assert res.returncode == 2
    assert res.stdout == ""
    assert "argument --N: not an integer: '1.5e0'" in res.stderr


# ---------------------------------------------------------------------------
# the represent contract, case by case
# ---------------------------------------------------------------------------

def _refuse_to_sieve_past_1e6(monkeypatch):
    from revprime import sieve

    real = sieve.sieve_primes

    def small_sieve(limit, *, extend=None):
        if limit > 10**6:
            raise AssertionError(f"sieved to {limit}")
        return real(limit, extend=extend)

    monkeypatch.setattr(sieve, "sieve_primes", small_sieve)


CONTRACT_FAMILIES = [("r11", None), ("r12", None), ("r21", None), ("rsquare", None)] + [
    ("r0k", k) for k in (1, 2, 6, 7)
]


def _contract_targets(family, k):
    """The --n values of one family's contract cases: the edges of the
    target checks, the length ceilings, an inexact integer, a reversed
    range and a duplicated target."""
    targets = ["-1", "0", "1", "2", "3", str(2**31), "3e9", "1.5e0", "40..30", "40,40"]
    if k is not None:
        targets += [str(k - 1), str(k)]
    if family != "rsquare":  # past MAX_CONV_LEN, below the length ceiling
        targets.append(str(2**29 + 1))
    return targets


@pytest.mark.parametrize("family,k", CONTRACT_FAMILIES)
def test_represent_contract(family, k, tmp_path, monkeypatch, capsys):
    # every case ends in an exit code of the contract, with no traceback; a
    # refused one leaves the cache directory empty, and an accepted one is
    # quick.  A sieve past 10^6 would mean a case reads primes it must not.
    import time

    from revprime import cli

    _refuse_to_sieve_past_1e6(monkeypatch)
    for i, target in enumerate(_contract_targets(family, k)):
        cache = tmp_path / f"cache{i}"
        argv = ["represent", "--family", family, f"--n={target}", "--cache-dir", str(cache)]
        if k is not None:
            argv += ["--k", str(k)]
        start = time.perf_counter()
        code = cli.main(argv)
        elapsed = time.perf_counter() - start
        out, err = capsys.readouterr()
        case = (family, k, target, code, err)
        assert code in (0, 1, 2, 3), case
        assert "Traceback" not in err, case
        if code in (2, 3):
            assert out == "" and (not cache.exists() or list(cache.iterdir()) == []), case
        if code == 0:
            assert elapsed < 10, case
            assert len(out.splitlines()) == 1 + len(cli.int_list(cli._int_ranges(target))), case


def test_represent_range_is_checked_before_it_is_listed(tmp_path):
    # the ceiling of the batch's first build is checked on the ranges' ends,
    # so the 2e6 targets below the refused one are never listed
    import tracemalloc

    from revprime import cli

    tracemalloc.start()
    try:
        code = cli.main(["represent", "--family", "r11", "--n", "2..2e6,3e9", "--cache-dir", str(tmp_path)])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 3
    assert peak < 10 * 2**20
    assert list(tmp_path.iterdir()) == []


# ---------------------------------------------------------------------------
# the circle contract, case by case
# ---------------------------------------------------------------------------

CIRCLE_INTS = ["-1", "0", "1", "2", "3", str(2**31), "3e9", "1e400", "1.5e0"]
CIRCLE_FLOATS = ["0", "1", "nan", "inf", "1e308"]
CIRCLE_SMALL = ["-1", "0", "1", "2", "3"]

# op -> (the --kind / --which modes, {flag: values}); each case varies one
# flag of one mode and leaves the others at their defaults
CIRCLE_OPS = {
    "arcs": ([()], {"--N": CIRCLE_INTS, "--B": CIRCLE_FLOATS}),
    "expsum": (
        [("--kind", kind) for kind in ("prime", "reversed_prime_coprime", "all", "B_set", "none")],
        {"--N": CIRCLE_INTS, "--alpha": CIRCLE_FLOATS},
    ),
    "residual": (
        [("--which", "S"), ("--which", "revS")],
        {"--N": CIRCLE_INTS, "--alpha": CIRCLE_FLOATS, "--B": CIRCLE_FLOATS},
    ),
    "weyl": (
        [("--kind", kind) for kind in ("all", "B_set", "prime")],
        {"--N": CIRCLE_INTS, "--beta": CIRCLE_FLOATS},
    ),
    "parseval": ([()], {"--N": CIRCLE_INTS}),
    "probe": ([()], {"--N": CIRCLE_INTS, "--B": CIRCLE_FLOATS, "--samples": CIRCLE_SMALL}),
    "curve": ([()], {"--N": CIRCLE_INTS, "--samples": CIRCLE_SMALL}),
    "gamma": (
        [()],
        {
            **{flag: CIRCLE_INTS for flag in ("--h", "--q", "--k", "--d", "--lam")},
            "--digits": CIRCLE_SMALL + ["308", "309", "310", "2e6"],
        },
    ),
}


@pytest.mark.parametrize("op", sorted(CIRCLE_OPS))
def test_circle_contract(op, tmp_path, monkeypatch, capsys):
    # every case ends in an exit code of the contract, with no traceback; a
    # usage error or a refused ceiling prints nothing and leaves the cache
    # directory empty, and an accepted case is quick.  A sieve past 10^6
    # would mean a case reads primes it must not.
    import time

    from revprime import cli

    _refuse_to_sieve_past_1e6(monkeypatch)
    modes, flags = CIRCLE_OPS[op]
    i = 0
    for mode in modes:
        for flag, values in flags.items():
            for value in values:
                cache = tmp_path / f"cache{i}"
                i += 1
                argv = ["circle", "--op", op, *mode, f"{flag}={value}", "--cache-dir", str(cache)]
                start = time.perf_counter()
                try:
                    code = cli.main(argv)
                except SystemExit as exc:  # argparse refuses an inexact integer
                    code = exc.code
                elapsed = time.perf_counter() - start
                out, err = capsys.readouterr()
                case = (argv[2:-2], code, err)
                assert code in (0, 1, 2, 3), case
                assert "Traceback" not in err, case
                if flag == "--samples" and value in ("-1", "0"):  # probe and curve alike
                    assert code == 2, case
                if code == 2 or (code == 3 and "ceiling" in err):
                    assert out == "" and (not cache.exists() or list(cache.iterdir()) == []), case
                if code == 0:
                    assert elapsed < 10, case


@pytest.mark.parametrize("args", [
    ("--op", "expsum", "--alpha=nan"),
    ("--op", "expsum", "--alpha=inf"),
    ("--op", "expsum", "--kind", "prime", "--alpha=-inf"),
    ("--op", "weyl", "--beta=nan"),
    ("--op", "weyl", "--beta=inf"),
    ("--op", "weyl", "--kind", "B_set", "--beta=-inf"),
])
def test_non_finite_phase_is_a_usage_error(args, tmp_path, monkeypatch, capsys):
    # like residual, expsum and weyl refuse a phase that is not finite,
    # before a prime is read
    from revprime import cli, sieve

    monkeypatch.setattr(sieve, "sieve_primes", _refuse_to_sieve)
    assert cli.main(["circle", *args, "--cache-dir", str(tmp_path)]) == 2
    out, err = capsys.readouterr()
    phase = args[-1][2:].partition("=")[0]  # alpha or beta
    assert out == "" and err.startswith(f"usage error: {phase} must be finite, not ")
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("args", [
    ("circle", "--op", "expsum", "--N", "1e400"),
    ("count-ap", "--x", "1e400"),
    ("count-ap", "--x", "3", "--q", "1e400"),
    ("partition", "--digits", "4", "--eta", "1", "--r", "1e400"),
    ("partition", "--digits", "1e400", "--eta", "1", "--r", "1"),
])
def test_messages_never_spell_out_a_huge_integer(args):
    # an integer past 20 digits is written as its magnitude, once
    res = run_cli(*args)
    assert res.returncode in (2, 3)
    assert res.stdout == "" and len(res.stderr) < 200 and "e+400" in res.stderr


def test_messages_keep_integers_of_20_digits():
    from revprime.errors import brief

    assert brief(10**20 - 1) == "9" * 20 and brief(-(10**20) + 1) == "-" + "9" * 20
    assert brief(2**31) == "2147483648"
    assert brief(10**20) == "~1.0e+20" and brief(-(10**400)) == "~-1.0e+400"


# ---------------------------------------------------------------------------
# the count-ap contract, case by case
# ---------------------------------------------------------------------------

COUNT_AP_INTS = ["-1", "0", "1", "2", "3", str(2**31), "3e9", "1e400", "1.5e0"]

# flag -> the values of its cases; each case varies one flag and leaves the
# others at --x 1000 --q 1 --a 0
COUNT_AP_FLAGS = {
    "--x": COUNT_AP_INTS + [str(2**31 - 1), "40..30", "40,40", "30..40,35", "1..3e9"],
    "--q": COUNT_AP_INTS + [str(2**63 - 1), str(2**63), "7..3", "7,7", "1..3,2", "0..3e9"],
    "--a": COUNT_AP_INTS + ["9..3", "4,4", "0..2,1"],
}


@pytest.mark.filterwarnings("ignore::revprime.errors.ModulusRangeWarning")
@pytest.mark.parametrize("flag", sorted(COUNT_AP_FLAGS))
def test_count_ap_contract(flag, tmp_path, monkeypatch, capsys):
    # every case ends in an exit code of the contract, with no traceback; a
    # usage error or a refused ceiling prints nothing and leaves the cache
    # directory empty, and an accepted case is quick.  A sieve past 10^6
    # would mean a case reads primes it must not.
    import time

    from revprime import cli

    _refuse_to_sieve_past_1e6(monkeypatch)
    for i, value in enumerate(COUNT_AP_FLAGS[flag]):
        cache = tmp_path / f"cache{i}"
        argv = {"--x": "1000", "--q": "1", "--a": "0", flag: value}
        argv = ["count-ap", *(f"{k}={v}" for k, v in argv.items()), "--cache-dir", str(cache)]
        start = time.perf_counter()
        code = cli.main(argv)
        elapsed = time.perf_counter() - start
        out, err = capsys.readouterr()
        case = (argv[1:-2], code, err)
        assert code in (0, 1, 2, 3), case
        assert "Traceback" not in err, case
        if code == 2 or (code == 3 and "ceiling" in err):
            assert out == "" and (not cache.exists() or list(cache.iterdir()) == []), case
        if code == 0:
            assert elapsed < 10, case
            rows = [len(cli.int_list(cli._int_ranges(argv[i][4:]))) for i in (1, 2, 3)]
            assert len(out.splitlines()) == 1 + math.prod(rows), case


# ---------------------------------------------------------------------------
# the partition contract, case by case
# ---------------------------------------------------------------------------

PARTITION_INTS = ["-1", "0", "1", "2", "3", "1e400", "1.5e0"]
PARTITION_DEFAULTS = {"--digits": "4", "--eta": "1", "--r": "3", "--a": "0", "--q": "1"}

# each case overrides some flags of PARTITION_DEFAULTS.  In base 10 the
# window's sources need a sieve to 10^L - 1, which passes the 2^31 ceiling
# at L = 10; r = 10 is b^eta at eta = 1
PARTITION_CASES = [
    *({flag: value} for flag in PARTITION_DEFAULTS for value in PARTITION_INTS),
    {"--digits": "9"},
    {"--digits": "10"},
    {"--digits": "1e400", "--eta": "1e400"},
    {"--digits": "10", "--eta": "1e400"},
    {"--r": "9"},
    {"--r": "10"},
    {"--eta": "2", "--r": "100"},
    {"--q": str(2**63 - 1)},
    {"--q": str(2**63)},
]


@pytest.mark.filterwarnings("ignore::revprime.errors.ModulusRangeWarning")
@pytest.mark.parametrize(
    "case", PARTITION_CASES, ids=[",".join(f"{k}={v}" for k, v in c.items()) for c in PARTITION_CASES]
)
def test_partition_contract(case, tmp_path, monkeypatch, capsys):
    # every case ends in an exit code of the contract, with no traceback and
    # within a wall-clock cap; a usage error or a refused ceiling prints
    # nothing and leaves the cache directory empty.  The one case just below
    # the ceiling must reach its sieve to 10^9 - 1, which the stub refuses.
    import time

    from revprime import cli

    _refuse_to_sieve_past_1e6(monkeypatch)
    cache = tmp_path / "cache"
    argv = ["partition", *(f"{k}={v}" for k, v in {**PARTITION_DEFAULTS, **case}.items())]
    argv += ["--cache-dir", str(cache)]
    start = time.perf_counter()
    try:
        code = cli.main(argv)
    except SystemExit as exc:  # argparse refuses an inexact integer
        code = exc.code
    except AssertionError as exc:  # the stub refused a sieve
        code = str(exc)
    elapsed = time.perf_counter() - start
    out, err = capsys.readouterr()
    outcome = (argv[1:-2], code, err)
    assert elapsed < 10, outcome
    if case == {"--digits": "9"}:
        assert code == f"sieved to {10**9 - 1}", outcome
        return
    assert code in (0, 1, 2, 3), outcome
    assert "Traceback" not in err, outcome
    if code == 2 or (code == 3 and "ceiling" in err):
        assert out == "" and (not cache.exists() or list(cache.iterdir()) == []), outcome
    if code == 0:
        assert len(out.splitlines()) == 2, outcome


# ---------------------------------------------------------------------------
# the schnirelmann, enumerate and verify contracts, case by case
# ---------------------------------------------------------------------------

def _contract_case(argv, cache, capsys):
    """Run one case with a fresh --cache-dir and check the rules of every
    contract sweep: an exit code of the contract with no traceback; after a
    usage error or a refused ceiling, nothing printed and an empty cache
    directory; an accepted case is quick.  Returns (code, out, err)."""
    import time

    from revprime import cli

    start = time.perf_counter()
    try:
        code = cli.main([*argv, "--cache-dir", str(cache)])
    except SystemExit as exc:  # argparse refuses an inexact integer
        code = exc.code
    elapsed = time.perf_counter() - start
    out, err = capsys.readouterr()
    case = (argv, code, err)
    assert code in (0, 1, 2, 3), case
    assert "Traceback" not in err, case
    if code == 2 or (code == 3 and "ceiling" in err):
        assert out == "" and (not cache.exists() or list(cache.iterdir()) == []), case
    if code == 0:
        assert elapsed < 10, case
    return code, out, err


SWEEP_INTS = ["-1", "0", "1", "2", "3", str(2**31 - 1), "3e9", "1e400", "1.5e0"]

# op -> the integer flags it reads; each case varies one of them and leaves
# the others at their defaults
SCHNIRELMANN_OPS = {"gap": ("--i", "--digits"), "mink": ("--n", "--kmax"), "scan": ("--lo", "--hi", "--kmax")}


@pytest.mark.parametrize("op", sorted(SCHNIRELMANN_OPS))
def test_schnirelmann_contract(op, tmp_path, monkeypatch, capsys):
    # a sieve past 10^6 would mean a case reads primes it must not; gap
    # refuses a digit length past the ceiling before b_i^(L-1) is taken
    _refuse_to_sieve_past_1e6(monkeypatch)
    i = 0
    for flag in SCHNIRELMANN_OPS[op]:
        for value in SWEEP_INTS:
            _contract_case(["schnirelmann", "--op", op, f"{flag}={value}"], tmp_path / f"cache{i}", capsys)
            i += 1


@pytest.mark.parametrize("mode", [(), ("--coprime",)])
def test_enumerate_contract(mode, tmp_path, monkeypatch, capsys):
    from revprime import cli

    _refuse_to_sieve_past_1e6(monkeypatch)
    for i, value in enumerate(SWEEP_INTS):
        code, out, _ = _contract_case(["enumerate", *mode, f"--limit={value}"], tmp_path / f"cache{i}", capsys)
        if code == 0:
            want = cli.sieve.reversed_prime_arrays(int(value), cli.Base(10), bool(mode)).n.tolist()
            assert [int(row.split(",")[0]) for row in out.splitlines()[1:]] == want


# (the argv after "verify", the start of its usage error)
VERIFY_CASES = [
    (("--suite", "nope"), "usage error: unknown suite 'nope'"),
    (("--suite", "asymptotics", "--fixtures", "/no/such/file"),
     "usage error: suite 'asymptotics' needs the oracle fixtures file, which cannot be read"),
    (("--suite", "asymptotics", "--fixtures", "/"),  # a directory: unreadable
     "usage error: suite 'asymptotics' needs the oracle fixtures file, which cannot be read"),
    (("--suite", "asymptotics", "--fixtures", "/dev/null"),  # lacks every key
     "usage error: fixtures /dev/null lacks the key 'theta_ratio_tol.b10.q1'"),
]


@pytest.mark.parametrize("args,message", VERIFY_CASES, ids=[" ".join(a) for a, _ in VERIFY_CASES])
def test_verify_contract(args, message, tmp_path, monkeypatch, capsys):
    # a usage error goes through cli.main's usage path, before any check runs
    _refuse_to_sieve_past_1e6(monkeypatch)
    code, out, err = _contract_case(["verify", *args], tmp_path / "cache", capsys)
    assert code == 2 and err.startswith(message) and "runtime_ms" not in err, err


def test_config_and_fixtures_files_share_one_reader(tmp_path):
    # (line number, key, value) past blank lines and comments, values kept
    # as text with any further "="; a line that is not key = value is named
    # by its number
    from revprime import verify

    path = tmp_path / "kv.txt"
    path.write_text("# a comment\n\n a = 1 \nb= x=y\nc =\n")
    assert list(verify.key_value_lines(str(path), "probe")) == [(3, "a", "1"), (4, "b", "x=y"), (5, "c", "")]
    for bad in ("a = 1\n\n= 2\n", "a = 1\n\nb 2\n"):
        path.write_text(bad)
        with pytest.raises(ValueError, match="^probe line 3 is not key = value"):
            list(verify.key_value_lines(str(path), "probe"))
