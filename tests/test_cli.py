import contextlib
import hashlib
import io
import json
import math
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from treedens import FAMILY_NAMES, Regime
import treedens.cli as cli
import treedens.densities as densities
from treedens.cli import run
from treedens.risk_lab import ESTIMATORS

DATA = Path(__file__).parent / "data"


def _capture(capsys, argv):
    code = run(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


def test_estimate_csv_shape(capsys):
    code, out, err = _capture(
        capsys,
        [
            "estimate", "--family", "harmonic-zipf", "--k", "8", "--n", "100",
            "--estimator", "greedy-binary", "--seed", "1",
        ],
    )
    assert code == 0 and err == ""
    lines = out.splitlines()
    assert lines[0] == "x,value"
    assert len(lines) == 9


def test_estimate_json_record(capsys):
    code, out, _ = _capture(
        capsys,
        [
            "estimate", "--family", "harmonic-zipf", "--k", "64", "--n", "1000",
            "--estimator", "greedy-binary", "--seed", "7", "--format", "json",
        ],
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["tree"]["arity"] == 2
    assert payload["estimate"]["domain_k"] == 64
    assert 0.9 < payload["mass"] <= 1.0 + 1e-9
    assert {p["kind"] for p in payload["estimate"]["pieces"]} == {"constant"}


def test_estimate_byte_identical_reruns(tmp_path):
    argv = [
        "estimate", "--family", "harmonic-zipf", "--k", "64", "--n", "1000",
        "--estimator", "greedy-binary", "--seed", "7",
    ]
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert run(argv + ["--out", str(a)]) == 0
    assert run(argv + ["--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_estimate_idealized_seed_independent(capsys):
    outs = []
    for seed in ("7", "99"):
        code, out, _ = _capture(
            capsys,
            [
                "estimate", "--family", "harmonic-zipf", "--k", "64", "--n", "1000",
                "--estimator", "idealized-binary", "--seed", seed, "--format", "json",
            ],
        )
        assert code == 0
        outs.append(json.loads(out))
    assert outs[0]["tree"] == outs[1]["tree"]
    assert outs[0]["estimate"] == outs[1]["estimate"]


def test_simulate_golden_file(tmp_path):
    out = tmp_path / "risk.csv"
    code = run(
        [
            "simulate", "--estimator", "greedy-binary+monotonize",
            "--family", "harmonic-zipf", "--k", "64",
            "--n-grid", "100,400,1600", "--reps", "20", "--seed", "1",
            "--out", str(out),
        ]
    )
    assert code == 0
    assert out.read_bytes() == (DATA / "simulate_golden.csv").read_bytes()


def test_simulate_single_n(capsys):
    code, out, _ = _capture(
        capsys,
        [
            "simulate", "--estimator", "oracle", "--family", "uniform",
            "--k", "4", "--n", "50", "--reps", "3", "--seed", "0",
        ],
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "n,k,mean_tv,std_error,reps,seed"
    assert lines[1].startswith("50,4,0.0,")


def test_simulate_threads_flag(capsys):
    argv = [
        "simulate", "--estimator", "greedy-binary", "--family", "harmonic-zipf",
        "--k", "16", "--n", "200", "--reps", "8", "--seed", "5",
    ]
    _, out1, _ = _capture(capsys, argv + ["--threads", "1"])
    _, out8, _ = _capture(capsys, argv + ["--threads", "8"])
    assert out1 == out8


def test_rates_output(capsys):
    code, out, _ = _capture(capsys, ["rates", "--class", "monotone", "--n", "64", "--k", "32"])
    assert code == 0
    header, row = out.splitlines()
    assert header == "class,n,k,branch,value"
    cls, n, k, branch, value = row.split(",")
    assert (cls, n, k, branch) == ("monotone", "64", "32", "mid-k")
    assert float(value) == pytest.approx((3 / 64) ** (1 / 3), rel=1e-12)


def test_rates_convex_json(capsys):
    code, out, _ = _capture(
        capsys, ["rates", "--class", "convex", "--n", "1000000", "--k", "2", "--format", "json"]
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["branch"] == "small-k"
    assert payload["value"] == pytest.approx(math.sqrt(2e-6), rel=1e-12)


def test_assouad_json(capsys):
    code, out, _ = _capture(
        capsys,
        ["assouad", "--regime", "monotone-small-k", "--n", "1000000", "--k", "64", "--format", "json"],
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["r"] == 32
    assert len(payload["theta"]) == 32
    assert payload["lower_bound"] >= 0.0
    assert len(payload["density"]["mass"]) == 64
    assert sum(payload["density"]["mass"]) == pytest.approx(1.0, abs=1e-9)


def test_assouad_theta_forms(capsys):
    base = ["assouad", "--regime", "convex-small-k", "--n", "1000000", "--k", "9", "--format", "json"]
    _, ones, _ = _capture(capsys, base + ["--theta", "ones"])
    _, bits, _ = _capture(capsys, base + ["--theta", "111"])
    assert json.loads(ones)["density"] == json.loads(bits)["density"]


def test_assouad_csv_is_density(capsys):
    code, out, _ = _capture(
        capsys, ["assouad", "--regime", "convex-small-k", "--n", "1000000", "--k", "9"]
    )
    assert code == 0
    assert out.splitlines()[0] == "index,mass"
    assert len(out.splitlines()) == 10


def test_assouad_out_of_regime_is_runtime_error(capsys):
    code, out, err = _capture(
        capsys, ["assouad", "--regime", "monotone-large-k", "--n", "1000000", "--k", "100"]
    )
    assert code == 1
    assert out == ""
    assert "treedens assouad" in err


def test_assouad_r_without_epsilon_rejected(capsys):
    code, _, err = _capture(
        capsys,
        ["assouad", "--regime", "convex-small-k", "--n", "100", "--k", "9", "--r", "3"],
    )
    assert code == 1
    assert "--epsilon" in err


@pytest.mark.parametrize(
    "regime, eps, r",
    [("monotone-large-k", "0.1", "5000"), ("convex-large-k", "0.5", "2000"),
     ("monotone-large-k", "1e-9", "1000000"), ("convex-large-k", "1e-9", "1000000")],
)
def test_assouad_too_many_bins_is_one_line_error(capsys, regime, eps, r):
    # many growing bins once overflowed float arithmetic (a bare
    # OverflowError) or were built one by one before the fit check
    code, out, err = _capture(
        capsys,
        ["assouad", "--regime", regime, "--k", "10", "--n", "100", "--epsilon", eps, "--r", r],
    )
    assert code == 1
    assert out == ""
    assert err.startswith("treedens assouad: bins need at least") and err.count("\n") == 1


def test_assouad_with_bins_that_cannot_fit_fails_before_building_theta(capsys):
    # the "zeros" theta was expanded to r bits, and copied by the spec, before
    # the O(1) fit check: about 2.8 s and a 153 MB peak at r = 10**7
    argv = ["assouad", "--regime", "monotone-small-k", "--n", "100", "--k", "10",
            "--r", str(10**7), "--epsilon", "0.5"]
    tracemalloc.start()
    try:
        code, out, err = _capture(capsys, argv)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (code, out) == (1, "")
    assert err == "treedens assouad: bins need 20000000 atoms but the support has only 10\n"
    assert peak < 4 * 2**20


def test_assouad_csv_does_not_compute_the_bound_it_never_prints(capsys):
    # the CSV view is the density alone, but the bound's beta < 0 at this
    # epsilon failed the request
    argv = ["assouad", "--regime", "monotone-small-k", "--n", "100", "--k", "2",
            "--r", "1", "--epsilon", "0.99"]
    code, out, _ = _capture(capsys, argv)
    assert code == 0
    assert out.splitlines()[0] == "index,mass" and len(out.splitlines()) == 3
    code, out, err = _capture(capsys, argv + ["--format", "json"])
    assert (code, out) == (1, "")
    assert err.startswith("treedens assouad: need beta in (0, 1]") and err.count("\n") == 1


_HUGE = str(10**20)
_PAST_FLOATS = str(10**30)


@pytest.mark.parametrize(
    "argv",
    [
        ["estimate", "--family", "uniform", "--k", _HUGE, "--n", "10", "--estimator", "oracle"],
        ["estimate", "--family", "uniform", "--k", str(2**60), "--n", "10",
         "--estimator", "oracle"],
        ["estimate", "--family", "uniform", "--k", "8", "--n", _HUGE,
         "--estimator", "greedy-binary"],
        ["simulate", "--family", "uniform", "--k", _HUGE, "--n", "10", "--estimator", "oracle",
         "--reps", "1"],
        ["simulate", "--family", "uniform", "--k", "8", "--n", _HUGE,
         "--estimator", "greedy-binary", "--reps", "1"],
        ["simulate", "--family", "uniform", "--k", "8", "--n", "10",
         "--estimator", "greedy-binary", "--reps", _HUGE],
        ["mde", "--candidates", "uniform", "--family", "uniform", "--k", _HUGE, "--n", "10"],
        ["assouad", "--regime", "monotone-small-k", "--n", "100", "--k", _HUGE,
         "--r", "3", "--epsilon", "0.5"],
        ["assouad", "--regime", "monotone-large-k", "--n", "100", "--k", _PAST_FLOATS,
         "--r", "30", "--epsilon", "0.5"],
        ["assouad", "--regime", "convex-large-k", "--n", "100", "--k", _PAST_FLOATS,
         "--r", "70", "--epsilon", "0.5"],
        # the "zeros" theta was expanded to r bits first: an OverflowError
        ["assouad", "--regime", "monotone-large-k", "--n", "100", "--k", "10",
         "--r", str(2**63), "--epsilon", "0.1"],
    ],
)
def test_size_past_the_array_range_is_one_line_error(capsys, argv):
    # numpy's "Maximum allowed dimension exceeded" or "array is too big"
    # ValueError, or an OverflowError, escaped as a traceback
    code, out, err = _capture(capsys, argv)
    assert (code, out) == (1, "")
    assert err.startswith(f"treedens {argv[0]}: ") and err.count("\n") == 1
    assert "must be an integer of at most" in err


_PAST_FLOAT_RANGE = str(10**400)


@pytest.mark.parametrize(
    "argv",
    [
        ["rates", "--class", "monotone", "--n", _PAST_FLOAT_RANGE, "--k", "5"],
        ["rates", "--class", "monotone", "--n", "2000", "--k", _PAST_FLOAT_RANGE],
        ["assouad", "--regime", "convex-small-k", "--n", _PAST_FLOAT_RANGE, "--k", "9"],
        ["assouad", "--regime", "monotone-large-k", "--n", "1000", "--k", _PAST_FLOAT_RANGE],
        ["assouad", "--regime", "monotone-small-k", "--n", _PAST_FLOAT_RANGE, "--k", "4",
         "--r", "2", "--epsilon", "0.1"],
    ],
)
def test_n_or_k_past_the_float_range_is_one_line_error(capsys, argv):
    # each ended in "OverflowError: int too large to convert to float"
    code, out, err = _capture(capsys, argv)
    assert (code, out) == (1, "")
    assert err.startswith(f"treedens {argv[0]}: ") and err.count("\n") == 1


def test_large_k_rate_reads_a_k_past_the_float_range(capsys):
    # the large-k branch compares logs and never converts k to a float
    argv = ["rates", "--class", "monotone", "--n", "5", "--k", _PAST_FLOAT_RANGE]
    code, out, _ = _capture(capsys, argv)
    assert code == 0
    assert out == f"class,n,k,branch,value\nmonotone,5,{_PAST_FLOAT_RANGE},large-k,1.0\n"


@pytest.mark.parametrize(
    "message, argv",
    [
        ("Unable to allocate 745. GiB for an array with shape (100000000000,) "
         "and data type float64",
         ["estimate", "--family", "uniform", "--k", "100000000000", "--n", "10",
          "--estimator", "oracle"]),
        ("", ["mde", "--candidates", "uniform", "--family", "uniform", "--k", "4", "--n", "10"]),
    ],
)
def test_memory_error_is_one_line_error(capsys, monkeypatch, message, argv):
    import treedens.cli as cli

    def out_of_memory(*args):
        raise MemoryError(message)

    monkeypatch.setattr(cli, "family", out_of_memory)
    code, out, err = _capture(capsys, argv)
    detail = f": {message}" if message else ""
    assert (code, out, err) == (1, "", f"treedens {argv[0]}: out of memory{detail}\n")


def test_vc_csv(capsys):
    code, out, _ = _capture(capsys, ["vc", "--ell", "2", "--m", "8"])
    assert code == 0
    assert out == "ell,m,vc\n2,8,4\n"


def test_mde_selects_truth(capsys):
    code, out, _ = _capture(
        capsys,
        [
            "mde", "--candidates", "uniform,harmonic-zipf,trunc-geometric:0.5",
            "--family", "harmonic-zipf", "--k", "16", "--n", "500", "--seed", "3",
        ],
    )
    assert code == 0
    assert out.splitlines()[1].split(",")[1] == "harmonic-zipf"


def test_mde_bad_candidate_param_is_runtime_error(capsys):
    code, out, err = _capture(
        capsys,
        [
            "mde", "--candidates", "uniform,trunc-geometric:abc",
            "--family", "uniform", "--k", "8", "--n", "10",
        ],
    )
    assert code == 1
    assert out == ""
    assert err.startswith("treedens mde:") and "trunc-geometric:abc" in err
    assert err.count("\n") == 1


@pytest.mark.parametrize(
    "argv",
    [
        ["estimate", "--family", "uniform", "--k", "4", "--n", "10",
         "--estimator", "greedy-binary"],
        ["mde", "--candidates", "uniform,harmonic-zipf", "--family", "uniform",
         "--k", "4", "--n", "10"],
    ],
)
def test_negative_seed_is_one_line_error(capsys, argv):
    # numpy's ValueError escaped as a traceback
    code, out, err = _capture(capsys, argv + ["--seed", "-1"])
    assert (code, out) == (1, "")
    assert err == f"treedens {argv[0]}: seed must be >= 0, got -1\n"


def test_simulate_accepts_a_negative_master_seed(capsys):
    # replication seeds are derived, and derive_seed masks to 64 bits
    argv = ["simulate", "--family", "uniform", "--k", "4", "--n", "10",
            "--estimator", "greedy-binary", "--reps", "2", "--seed", "-1"]
    code, out, _ = _capture(capsys, argv)
    assert code == 0 and out.splitlines()[1].endswith(",2,-1")


def test_unwritable_out_is_runtime_error(capsys, tmp_path):
    target = tmp_path / "missing-dir" / "x.csv"
    code, out, err = _capture(
        capsys,
        [
            "estimate", "--family", "uniform", "--k", "4", "--n", "10",
            "--estimator", "oracle", "--out", str(target),
        ],
    )
    assert code == 1
    assert out == ""
    assert err.startswith("treedens estimate:") and err.count("\n") == 1
    assert not target.exists()


def test_usage_error_exit_2():
    with pytest.raises(SystemExit) as exc:
        run(["rates", "--class", "monotone", "--n", "64"])  # --k missing
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        run(["estimate", "--family", "uniform", "--k", "4", "--n", "0",
             "--estimator", "oracle"])
    assert exc.value.code == 2


def test_a_grid_entry_that_is_no_integer_is_a_usage_error():
    with pytest.raises(SystemExit) as exc:
        run(["simulate", "--family", "uniform", "--k", "4", "--n-grid", "10,x",
             "--estimator", "oracle", "--reps", "2"])
    assert exc.value.code == 2


def test_assouad_theta_of_digits_other_than_bits_is_one_line_error(capsys):
    code, out, err = _capture(
        capsys,
        ["assouad", "--regime", "convex-small-k", "--n", "1000000", "--k", "9", "--theta", "012"],
    )
    assert (code, out) == (1, "")
    assert err.startswith("treedens assouad:") and err.count("\n") == 1


def test_console_script_entry_point():
    proc = subprocess.run(
        [sys.executable, "-c", "from treedens.cli import main; main()", "vc", "--ell", "1", "--m", "4"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout == "ell,m,vc\n1,4,2\n"


def test_python_dash_m_runs_the_cli():
    proc = subprocess.run(
        [sys.executable, "-m", "treedens.cli", "vc", "--ell", "1", "--m", "4"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout == "ell,m,vc\n1,4,2\n"


def _fresh(argv):
    proc = subprocess.run(
        [sys.executable, "-m", "treedens.cli", *argv], capture_output=True, text=True
    )
    return proc.returncode, proc.stdout, proc.stderr


def _in_process(capsys, argv):
    try:
        code = run(argv)
    except SystemExit as exc:
        code = exc.code
    out = capsys.readouterr()
    return code, out.out, out.err


def test_repeated_runs_in_one_process_match_fresh_processes(capsys, monkeypatch):
    # the parser is built once per process; a usage error must not leave
    # state behind that changes a later request or a repeated error
    monkeypatch.setenv("COLUMNS", "80")  # usage lines wrap at the same width
    bad = ["vc", "--ell", "0", "--m", "4"]
    good = ["vc", "--ell", "2", "--m", "8"]
    seen = [_in_process(capsys, argv) for argv in (bad, good, bad)]
    assert seen[0][0] == 2 and seen[0][2].startswith("usage: treedens vc")
    assert seen[1] == (0, "ell,m,vc\n2,8,4\n", "")
    assert seen[2] == seen[0]
    assert seen == [_fresh(argv) for argv in (bad, good, bad)]


# sha256 of stdout for every subcommand in both formats: the five
# tree-bearing estimators, simulate over one n and over a grid (including a
# NaN slope), every rates branch of both classes, all four assouad regimes,
# vc and mde.  Recorded when each subcommand wrote its own JSON encoder.
CLI_SHA256 = json.loads((DATA / "cli_sha256.json").read_text())


@pytest.mark.parametrize("case", CLI_SHA256, ids=lambda c: " ".join(c["argv"]))
def test_stdout_bytes_unchanged(capsys, case):
    assert run(case["argv"]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == case["sha256"]


@pytest.mark.parametrize(
    "case", [c for c in CLI_SHA256 if "json" in c["argv"]], ids=lambda c: " ".join(c["argv"])
)
def test_json_records_need_no_fallback(capsys, monkeypatch, case):
    # a record the writer cannot take would go to the slow json.dumps
    monkeypatch.setattr(cli, "_json_text", lambda obj: densities._json_value(obj, "\n"))
    assert run(case["argv"]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == case["sha256"]


# --- a bounded fuzz over all six subcommands ------------------------------------

# sizes past the array range, past the float range, zero, negative and not
# integers at all; every one must be rejected before it allocates anything
_BAD_INTS = ("0", "-1", "-7", str(2**63), str(10**20), str(10**400), "x", "1.5", "", "nan")
_FLOATS = (
    "nan", "inf", "-inf", "-0.0", "0", "0.3", "0.5", "0.999", "1", "2", "1e-300", "1e308", "x",
)


def _mostly(valid, bad):
    """valid four times in five, bad the fifth."""
    return st.integers(0, 4).flatmap(lambda i: valid if i else bad)


def _int(low, high):
    return _mostly(st.integers(low, high).map(str), st.sampled_from(_BAD_INTS))


def _pick(*names):
    return _mostly(st.sampled_from(names), st.just("bogus"))


_SIZE = _int(1, 10**4)
_SEED = _mostly(st.integers(0, 10**6).map(str), st.sampled_from(("-5", str(2**64), "x")))
_CANDIDATE = _mostly(
    st.one_of(
        st.sampled_from(FAMILY_NAMES),
        st.sampled_from(("0.1", "0.5", "0.99")).map("trunc-geometric:{}".format),
    ),
    st.one_of(
        st.sampled_from(("bogus", "", " ", ":", "uniform:")),
        st.builds("{}:{}".format, st.sampled_from(FAMILY_NAMES), st.sampled_from(_FLOATS)),
    ),
)
_GRID = _mostly(
    st.lists(_SIZE, min_size=1, max_size=3).map(",".join),
    st.sampled_from(("", ",", "1,,2", "x,10")),
)


@st.composite
def _argv(draw):
    """Random argvs of every subcommand.  A required option is left out one
    time in sixteen, so some usage errors are drawn as well."""
    cmd = draw(st.sampled_from(("estimate", "simulate", "rates", "assouad", "vc", "mde")))
    opts = []

    def opt(flag, values, odds=15):
        if draw(st.integers(0, 15)) < odds:
            opts.extend((flag, draw(values)))

    if cmd in ("estimate", "simulate", "mde"):
        opt("--family", _pick(*FAMILY_NAMES))
        opt("--k", _SIZE)
        opt("--seed", _SEED, 4)
    if cmd == "estimate":
        opt("--n", _SIZE)
        opt("--estimator", _pick(*ESTIMATORS))
        opt("--param", st.sampled_from(_FLOATS), 4)
    elif cmd == "simulate":
        opt(*draw(st.sampled_from((("--n", _SIZE), ("--n-grid", _GRID)))))
        opt("--estimator", _pick(*ESTIMATORS))
        opt("--reps", _int(1, 3))
        opt("--threads", st.sampled_from(("1", "2", "0", "-1", "x")), 4)
    elif cmd == "rates":
        opt("--class", _pick("monotone", "convex"))
        opt("--n", _SIZE)
        opt("--k", _SIZE)
    elif cmd == "assouad":
        opt("--regime", _pick(*(r.value for r in Regime)))
        opt("--n", _SIZE)
        opt("--k", _SIZE)
        if draw(st.booleans()):
            opt("--r", _int(1, 40))
            opt("--epsilon", st.sampled_from(_FLOATS))
        opt("--theta", st.one_of(st.sampled_from(("zeros", "ones", "", "012")), st.text("01")), 4)
    elif cmd == "vc":
        opt("--ell", _int(1, 5))
        opt("--m", _mostly(st.integers(1, 10).map(str), st.sampled_from(("25", *_BAD_INTS))))
    else:
        opt("--candidates", st.lists(_CANDIDATE, max_size=4).map(",".join))
        opt("--n", _SIZE)
    opt("--format", _pick("csv", "json"), 8)
    return [cmd, *opts]


@settings(max_examples=200, deadline=None)
@given(argv=_argv())
def test_random_argvs_end_in_one_of_three_ways(argv):
    # exit 0; exit 2 from argparse; or exit 1 with exactly one stderr line
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = run(argv)
        except SystemExit as exc:
            assert exc.code == 2, argv
            return
    if code == 1:
        assert out.getvalue() == "", argv
        assert err.getvalue().startswith(f"treedens {argv[0]}: "), argv
        assert err.getvalue().count("\n") == 1, argv
    else:
        assert (code, err.getvalue()) == (0, ""), argv
