"""Command-line surface: flags, formats, exit codes, determinism."""

from __future__ import annotations

import hashlib
import importlib
import io
import json
import os
import shlex
import subprocess
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import reference_delivery_table
import sicps.cli as cli
from sicps.coloring import Coloring


def run(capsys, argv):
    code = cli.main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_analyze_text(capsys):
    code, out, _ = run(capsys, ["icp", "analyze", "--gaps", "2,1,0", "--L", "2"])
    assert code == 0
    assert "K: 8" in out
    assert "upper_Ru: 7" in out
    assert "lower_constructive: 6" in out
    assert "coloring_proper: true" in out
    assert "local_chromatic: 7" in out


def test_analyze_json(capsys):
    code, out, _ = run(
        capsys, ["icp", "analyze", "--gaps", "2,1", "--L", "6", "--format", "json"]
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["K"] == 10
    assert payload["bounds"]["exact"] == "5"
    assert payload["coloring"]["proper"] is True


def test_analyze_exact_unit_chunk(capsys):
    code, out, _ = run(
        capsys, ["icp", "analyze", "--gaps", "3,2,1", "--L", "1", "--format", "json"]
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["K"] == 9
    assert payload["bounds"]["exact"] == "9"


def test_analyze_canonicalizes_input(capsys):
    code, out, _ = run(
        capsys, ["icp", "analyze", "--gaps", "0,2,1", "--L", "2", "--format", "json"]
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["gaps"] == [2, 1, 0]
    assert payload["rotation_shift"] == 1


def test_analyze_runs_the_oracle_up_to_the_user_limit(capsys):
    def analyze(gaps, L):
        code, out, _ = run(
            capsys, ["icp", "analyze", "--gaps", gaps, "--L", L, "--format", "json"]
        )
        assert code == 0
        return json.loads(out)["bounds"]

    # 33 nodes, K = 11: no node count stops the oracle
    bounds = analyze("3,2,1", "2")
    assert (bounds["lower_brute"], bounds["exact"]) == (9, None)
    # one column, K = 31: no user knows anything, so the value is the node count
    assert analyze("30", "1")["lower_brute"] == 31
    # K = 24, above MAX_ORACLE_USERS: skipped
    assert analyze("11,11", "1")["lower_brute"] is None


@pytest.mark.parametrize("argv", [
    ["icp", "analyze", "--gaps", "2,,1", "--L", "2"],
    ["icp", "analyze", "--gaps", "2,1,", "--L", "2"],
    ["icp", "decode-test", "--gaps", ",2,1", "--L", "2", "--seed", "1"],
    ["macc", "simulate", "--K", "8", "--L", "2", "--w", "2",
     "--demands", "1,2,,3,4,5,6,7,8", "--seed", "1"],
])
def test_integer_list_rejects_empty_items(capsys, argv):
    flag = next(arg for arg in argv if arg in ("--gaps", "--demands"))
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"error: argument {flag}: {flag} expects a comma-separated integer list" in captured.err


def test_analyze_builds_the_union_once(capsys, monkeypatch):
    # The bound report, the oracle and the coloring all read one union instance;
    # the name is patched wherever a module could look it up.
    import sicps.bounds as bounds

    original = cli.build_union_icp
    specs = []

    def counted(spec):
        specs.append(spec)
        return original(spec)

    for module in (cli, bounds):
        monkeypatch.setattr(module, "build_union_icp", counted, raising=False)
    code, out, _ = run(
        capsys, ["icp", "analyze", "--gaps", "2,1,0", "--L", "2", "--format", "json"]
    )
    assert code == 0
    assert json.loads(out)["bounds"]["lower_brute"] == 6  # the oracle ran
    assert len(specs) == 1


def test_decode_test_passes(capsys):
    code, out, _ = run(
        capsys,
        ["icp", "decode-test", "--gaps", "2,1,0", "--L", "2",
         "--trials", "50", "--seed", "42", "--format", "json"],
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["failures"] == 0
    assert payload["scheme"]["chi"] == 7
    assert list(payload["scheme"]) == ["colors", "chi", "field", "assignment"]
    assert len(payload["scheme"]["assignment"]) == 24


def test_decode_test_zero_trials_vacuous(capsys):
    code, out, _ = run(
        capsys,
        ["icp", "decode-test", "--gaps", "3,2,1", "--L", "2",
         "--trials", "0", "--seed", "1", "--format", "json"],
    )
    assert code == 0
    assert json.loads(out)["failures"] == 0


def test_decode_test_rejects_negative_trials(capsys):
    code, out, err = run(
        capsys,
        ["icp", "decode-test", "--gaps", "2,1,0", "--L", "2",
         "--trials", "-1", "--seed", "1"],
    )
    assert code == 2
    assert out == ""
    assert err.startswith("error: --trials")


def test_decode_test_sparse_side_information_within_budget(capsys):
    # 602 users, each knowing 2 of 1,204 nodes: decode must not scale with
    # the whole graph per user, under a 5 s budget.
    start = time.perf_counter()
    code, out, _ = run(capsys, ["icp", "decode-test", "--gaps", "600,0", "--L", "1",
                                "--seed", "1", "--trials", "1"])
    elapsed = time.perf_counter() - start
    assert code == 0
    assert "failures: 0" in out
    assert elapsed < 5, f"decode-test --gaps 600,0 took {elapsed:.1f}s"


def test_decode_test_large_prime_field(capsys):
    argv = ["icp", "decode-test", "--gaps", "2,1", "--L", "1", "--seed", "1", "--trials", "1"]
    start = time.perf_counter()
    code, out, _ = run(capsys, [*argv, "--field", str(2**61 - 1)])
    assert time.perf_counter() - start < 2.0
    assert code == 0
    assert f"field: {2**61 - 1}" in out and "failures: 0" in out
    code, out, err = run(capsys, [*argv, "--field", str(2**61 + 1)])
    assert (code, out) == (2, "")
    assert err == f"error: field order {2**61 + 1} is not prime\n"


def test_decode_test_field_too_small(capsys):
    code, _, err = run(
        capsys,
        ["icp", "decode-test", "--gaps", "2,1,0", "--L", "2",
         "--field", "5", "--trials", "1", "--seed", "1"],
    )
    assert code == 2
    assert "error:" in err


def test_decode_test_requires_seed(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["icp", "decode-test", "--gaps", "2,1,0", "--L", "2"])
    assert exc.value.code == 2


def corrupted_decode_node(plan, messages, broadcast):
    """A per-user decode that gets every node of the plan's user wrong."""
    return {node: (messages[node] + 1) % plan.scheme.field_order for node in plan.own}


def test_decode_failure_exits_three(capsys, monkeypatch):
    import sicps.scheme as scheme

    monkeypatch.setattr(scheme, "decode_node", corrupted_decode_node)
    code, out, err = run(
        capsys,
        ["icp", "decode-test", "--gaps", "2,1", "--L", "1",
         "--trials", "2", "--seed", "7", "--format", "json"],
    )
    assert code == 3
    assert json.loads(out)["failures"] == 2 * 10
    # Stderr names the first ten failing nodes, trial 0's in node order, then the count.
    icp = cli.build_union_icp(cli.GapVector((2, 1), 1))
    built = scheme.build_mds_scheme(icp, cli.theorem1_coloring(icp), scheme.MdsCode(icp.K))
    plans = scheme.decode_plans(built)
    lines = err.splitlines()
    assert lines == [f"decode failure: trial 0, node {node}, unknown colors "
                     f"{plans[node[0] - 1].unknown_colors}, m={plans[node[0] - 1].m}, "
                     f"chi={built.chi}" for node in icp.nodes] + [
        "decode failures: 20 nodes over 2 trials, 10 shown"]
    assert [plan.m for plan in plans] == [built.chi] * icp.K
    assert len(plans[0].unknown_colors) == built.chi


def improper(build):
    """`build` with every node put in color 1, which some user does not know."""
    def built(icp):
        coloring = build(icp)
        return Coloring(dict.fromkeys(coloring.assignment, 1), coloring.num_colors)
    return built


@pytest.mark.parametrize("module, name, argv", [
    # An improper coloring of either theorem is a verification failure: never a
    # usage error, and never reported as "proper: false" or a skipped value.
    ("bounds", "theorem1_coloring", ["icp", "analyze", "--gaps", "2,1,0", "--L", "2"]),
    ("bounds", "theorem5_coloring", ["icp", "analyze", "--gaps", "2,1", "--L", "6"]),
    ("cli", "theorem1_coloring",
     ["icp", "decode-test", "--gaps", "2,1,0", "--L", "2", "--trials", "2", "--seed", "1"]),
    ("macc", "theorem1_coloring",
     ["macc", "simulate", "--K", "8", "--L", "2", "--w", "2",
      "--demands", "1,2,3,4,5,6,7,8", "--seed", "1"]),
])
def test_improper_coloring_exits_three(capsys, monkeypatch, module, name, argv):
    target = importlib.import_module(f"sicps.{module}")
    monkeypatch.setattr(target, name, improper(getattr(target, name)))
    code, out, err = run(capsys, argv)
    assert (code, out) == (3, "")
    assert err.startswith("error: coloring is not proper: (1, 1) and ")


def test_bounds_out_of_order_exit_three(capsys, monkeypatch):
    import sicps.bounds as bounds

    # A MAIS oracle below the staircase bound is a verification failure.
    monkeypatch.setattr(bounds, "mais_bruteforce", lambda graph: 1)
    code, out, err = run(capsys, ["icp", "analyze", "--gaps", "2,1,0", "--L", "2"])
    assert (code, out, err) == (3, "", "error: bounds out of order\n")


def test_oracle_fault_is_not_reported_as_skipped(capsys, monkeypatch):
    import sicps.bounds as bounds

    # Only the oracle's user-limit refusal reads as a skipped lower_brute.
    def faulty(graph):
        raise ValueError("an internal fault")

    monkeypatch.setattr(bounds, "mais_bruteforce", faulty)
    code, out, err = run(capsys, ["icp", "analyze", "--gaps", "2,1,0", "--L", "2"])
    assert code != 0 and "skipped" not in out
    assert err == "error: an internal fault\n"


@pytest.mark.parametrize("trials", [1, 3])
def test_decode_test_builds_one_plan_per_user(capsys, monkeypatch, trials):
    import sicps.scheme as scheme

    calls, built = [], []
    real_plans, real_plan = scheme.decode_plans, scheme.plan_decode

    def spy_plans(scheme_):
        calls.append(scheme_)
        return real_plans(scheme_)

    def spy_plan(scheme_, user):
        built.append(user)
        return real_plan(scheme_, user)

    # Both the CLI's own call and any fallback inside simulate_decode count.
    monkeypatch.setattr(cli, "decode_plans", spy_plans)
    monkeypatch.setattr(scheme, "decode_plans", spy_plans)
    monkeypatch.setattr(scheme, "plan_decode", spy_plan)
    code, out, _ = run(
        capsys,
        ["icp", "decode-test", "--gaps", "2,1,0", "--L", "2",
         "--trials", str(trials), "--seed", "3", "--format", "json"],
    )
    assert code == 0
    assert json.loads(out)["failures"] == 0
    # One call for all K = 8 users, whatever the trial count: user 1's plan
    # moved to the others, as the Theorem-1 coloring is circulant.
    assert len(calls) == 1 and built == [1]


def test_macc_rate_values(capsys):
    code, out, _ = run(
        capsys,
        ["macc", "rate", "--K", "8", "--L", "2", "--w", "2", "--format", "json"],
    )
    assert code == 0
    payload = json.loads(out)
    assert Fraction(payload["rates"]["new"]["exact"]) == Fraction(68, 60)
    assert payload["rates"]["hkd"]["exact"] == "4/3"
    assert payload["rates"]["rk"]["exact"] == "2"


def test_macc_rate_nine_user_value(capsys):
    code, out, _ = run(
        capsys,
        ["macc", "rate", "--K", "9", "--L", "4", "--w", "1", "--format", "json"],
    )
    assert code == 0
    assert json.loads(out)["rates"]["new"]["exact"] == "17/9"


def test_macc_rate_zero_at_full_memory(capsys):
    code, out, _ = run(
        capsys,
        ["macc", "rate", "--K", "8", "--L", "4", "--w", "2", "--format", "json"],
    )
    assert code == 0
    payload = json.loads(out)
    assert all(entry["exact"] == "0" for entry in payload["rates"].values())


def test_macc_rate_invalid_w(capsys):
    code, _, err = run(capsys, ["macc", "rate", "--K", "8", "--L", "2", "--w", "9"])
    assert code == 2
    assert "error:" in err


def test_macc_rate_rejects_bad_config(capsys):
    for flags in (["--K", "8", "--L", "0"], ["--K", "0", "--L", "1"],
                  ["--N", "0", "--K", "8", "--L", "2"],
                  ["--N", "-1", "--K", "8", "--L", "2"]):
        code, out, err = run(capsys, ["macc", "rate", *flags, "--w", "1"])
        assert code == 2, flags
        assert out == ""
        assert err.startswith("error: ")


SMALL_INTS = st.integers(-3, 12)
HUGE_N = 10**400  # past the float range, so its decimal cannot be printed


@settings(max_examples=200, deadline=None)
@given(
    command=st.sampled_from(["rate", "tradeoff"]),
    N=st.one_of(st.none(), SMALL_INTS, st.just(HUGE_N)),
    K=SMALL_INTS,
    L=SMALL_INTS,
    w=SMALL_INTS,
    samples=st.integers(-3, 30),
    as_json=st.booleans(),
)
@example(command="rate", N=HUGE_N, K=8, L=2, w=2, samples=0, as_json=False)
@example(command="tradeoff", N=HUGE_N, K=8, L=2, w=2, samples=0, as_json=False)
def test_macc_rate_and_tradeoff_exit_cleanly(command, N, K, L, w, samples, as_json):
    argv = ["macc", command, "--K", str(K), "--L", str(L)]
    if N is not None:
        argv += ["--N", str(N)]
    argv += ["--w", str(w)] if command == "rate" else ["--samples", str(samples)]
    if as_json:
        argv += ["--format", "json"]
    with redirect_stdout(io.StringIO()) as out, redirect_stderr(io.StringIO()) as err:
        code = cli.main(argv)
    assert code in (0, 2)
    assert (code == 2) == err.getvalue().startswith("error: ")
    if code == 2:
        assert out.getvalue() == ""


def test_macc_huge_N_writes_no_file(capsys, tmp_path):
    out_path = tmp_path / "curve.csv"
    code, out, err = run(capsys, ["macc", "tradeoff", "--N", str(HUGE_N), "--K", "8",
                                  "--L", "2", "--out", str(out_path)])
    assert (code, out) == (2, "")
    assert err.startswith("error: value too large to print as a decimal")
    assert not out_path.exists()


@pytest.mark.parametrize("fmt", ["text", "json"])
def test_macc_rate_too_long_to_print_exactly(capsys, fmt):
    # R_new at K = 30000 has a numerator past Python's int-to-str digit limit.
    code, out, err = run(capsys, ["macc", "rate", "--K", "30000", "--L", "2", "--w", "9000",
                                  "--format", fmt])
    assert (code, out) == (2, "")
    limit = sys.get_int_max_str_digits()
    assert err == f"error: value too large to print exactly (more than {limit} digits)\n"


@pytest.mark.parametrize("argv, value", [
    (["rate", "--K", "1000000000000", "--L", "2", "--w", "300000000000"], None),
    (["tradeoff", "--N", "1", "--K", "6000", "--L", "1"], None),
    (["rate", "--K", "20000", "--L", "1", "--w", "10000"], "10000/10001"),
])
def test_macc_rate_cost_guard(capsys, argv, value):
    # The two unaffordable commands are refused at once; the largest
    # affordable rate still prints its exact value.
    start = time.perf_counter()
    code, out, err = run(capsys, ["macc", *argv, "--format", "json"])
    assert time.perf_counter() - start < 1.0
    if value is None:
        assert (code, out) == (2, "")
        assert err.startswith("error: ") and "would take more than 1.5e+09 bit operations" in err
    else:
        assert code == 0 and json.loads(out)["rates"]["new"]["exact"] == value


def test_macc_tradeoff_rejects_samples_out_of_range(capsys):
    for samples in ("-1", "100001", "100000000"):
        start = time.perf_counter()
        code, out, err = run(
            capsys, ["macc", "tradeoff", "--K", "8", "--L", "2", "--samples", samples]
        )
        assert time.perf_counter() - start < 1.0, samples
        assert code == 2, samples
        assert out == ""
        assert err.startswith("error: samples must be in [0, 100000]"), err


def mostly_positive(low, high):
    """Small integers, half of the draws in [1, high] so that runs get past validation."""
    return st.one_of(st.integers(1, high), st.integers(low, high))


@settings(max_examples=150, deadline=None)
@given(
    command=st.sampled_from(["analyze", "decode-test", "simulate"]),
    gaps=st.lists(mostly_positive(-1, 4), max_size=4),
    L=mostly_positive(-1, 4),
    N=st.one_of(st.none(), st.integers(-1, 9)),
    K=mostly_positive(-1, 9),
    w=mostly_positive(-1, 4),
    valid_demands=st.booleans(),
    demands=st.lists(st.integers(-1, 9), max_size=10),
    field=st.one_of(st.none(), st.integers(-3, 12)),
    trials=st.integers(-3, 3),
    seed=st.integers(-3, 3),
    as_json=st.booleans(),
)
def test_icp_and_simulate_exit_cleanly(command, gaps, L, N, K, w, valid_demands,
                                       demands, field, trials, seed, as_json):
    if command == "simulate":
        if valid_demands:
            demands = [1 + k % max(1, N if N is not None else K) for k in range(K)]
        argv = ["macc", "simulate", f"--K={K}", f"--L={L}", f"--w={w}",
                f"--demands={','.join(map(str, demands))}"]
        if N is not None:
            argv.append(f"--N={N}")
    else:
        argv = ["icp", command, f"--gaps={','.join(map(str, gaps))}", f"--L={L}"]
        if command == "decode-test":
            argv.append(f"--trials={trials}")
    if command != "analyze":
        argv.append(f"--seed={seed}")
        if field is not None:
            argv.append(f"--field={field}")
    if as_json:
        argv.append("--format=json")
    with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()) as err:
        code = cli.main(argv)
    assert code in (0, 2, 3)
    if code == 2:
        assert err.getvalue().startswith("error: ")
    if command == "decode-test" and trials < 0:
        assert code == 2


def test_macc_tradeoff_stdout_csv(capsys):
    code, out, _ = run(capsys, ["macc", "tradeoff", "--N", "8", "--K", "8", "--L", "2"])
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "M_exact,M_decimal,rate_exact,rate_decimal,source"
    assert lines[1].startswith("0,0,8,8,")
    assert lines[-1].endswith(",0,0,NEW") or lines[-1].endswith(",0,0,EXTREME")


def test_macc_tradeoff_writes_file(capsys, tmp_path):
    out_path = tmp_path / "curve.csv"
    code, out, _ = run(
        capsys,
        ["macc", "tradeoff", "--N", "100", "--K", "40", "--L", "4",
         "--samples", "5", "--out", str(out_path)],
    )
    assert code == 0
    assert out == ""
    content = out_path.read_text()
    assert content.startswith("M_exact,")
    rates = [Fraction(line.split(",")[2]) for line in content.strip().split("\n")[1:]]
    assert rates == sorted(rates, reverse=True)


def test_macc_tradeoff_unwritable_path(capsys):
    code, _, err = run(
        capsys,
        ["macc", "tradeoff", "--K", "8", "--L", "2",
         "--out", "/nonexistent-dir/curve.csv"],
    )
    assert code == 2
    assert "error:" in err


@pytest.mark.parametrize("argv", [
    "macc tradeoff --K 3000 --L 1 --format json",  # written while the command runs
    "icp analyze --gaps 2,1,0 --L 2",  # still in the stdout buffer when the command returns
])
def test_closed_stdout_exits_one_quietly(argv):
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = str(Path(cli.__file__).resolve().parents[1])
    with subprocess.Popen([sys.executable, "-m", "sicps", *argv.split()], env=env,
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE) as proc:
        proc.stdout.close()  # long before the interpreter has started
        err = proc.stderr.read()
        code = proc.wait(timeout=60)
    assert (code, err) == (1, b"")


def test_macc_simulate_json(capsys):
    code, out, _ = run(
        capsys,
        ["macc", "simulate", "--N", "8", "--K", "8", "--L", "2", "--w", "2",
         "--demands", "1,2,3,4,5,6,7,8", "--seed", "11"],
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["decoded_ok"] is True
    assert payload["total_rate"] == "17/15"
    assert Fraction(payload["total_rate"]) == Fraction(68, 60)


def test_macc_simulate_thousand_element_placement(capsys):
    # w = 1,000 fills memory (K = wL): nothing is left to send.
    code, out, _ = run(
        capsys,
        ["macc", "simulate", "--K", "2000", "--L", "2", "--w", "1000",
         "--demands", ",".join(["1"] * 2000), "--seed", "1"],
    )
    assert code == 0
    assert json.loads(out) == {"decoded_ok": True, "total_rate": "0", "classes": [],
                               "failures": []}


def test_macc_simulate_bad_demands(capsys):
    code, _, err = run(
        capsys,
        ["macc", "simulate", "--K", "8", "--L", "2", "--w", "2",
         "--demands", "1,2", "--seed", "1"],
    )
    assert code == 2
    assert "error:" in err


def test_macc_simulate_refuses_oversized_family(capsys):
    # C(40,20) placement sets: refused before any is enumerated
    start = time.perf_counter()
    code, out, err = run(
        capsys,
        ["macc", "simulate", "--K", "40", "--L", "1", "--w", "20",
         "--demands", ",".join(["1"] * 40), "--seed", "1"],
    )
    assert time.perf_counter() - start < 1
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and "137846528820 placement sets" in err


def test_macc_simulate_refuses_too_many_user_node_pairs(capsys):
    # 842,520 cells, about K = 120 pairs each: minutes of work, refused at once
    start = time.perf_counter()
    code, out, err = run(
        capsys,
        ["macc", "simulate", "--K", "120", "--L", "1", "--w", "2",
         "--demands", ",".join(["1"] * 120), "--seed", "1"],
    )
    assert time.perf_counter() - start < 1
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and "101102400 user-node pairs" in err


@pytest.mark.parametrize("field, error", [
    ("4", "error: field order 4 is not prime"),
    ("7", "error: field order 7 too small for 8 colors"),
])
def test_macc_simulate_refuses_a_bad_field_where_no_class_is_sent(capsys, field, error):
    # w*L = K leaves no delivery column, yet --field is checked as at any other corner.
    argv = ["macc", "simulate", "--K", "8", "--L", "2", "--w", "4",
            "--demands", "1,2,3,4,5,6,7,8", "--seed", "1", "--field"]
    code, out, err = run(capsys, argv + [field])
    assert (code, out, err.strip()) == (2, "", error)
    code, out, _ = run(capsys, argv + ["11"])
    assert code == 0 and json.loads(out)["total_rate"] == "0"


@pytest.mark.parametrize("argv", [
    # one class of i = 500 columns: 500 * 500 * 500 user-node pairs
    ["macc", "simulate", "--K", "500", "--L", "1", "--w", "499",
     "--demands", ",".join(["1"] * 500), "--seed", "1"],
    ["icp", "analyze", "--gaps", "0,0", "--L", "1000000000"],
    ["icp", "decode-test", "--gaps", "100000,0", "--L", "1", "--seed", "1"],
])
def test_oversized_union_refused_before_building(capsys, argv):
    start = time.perf_counter()
    code, out, err = run(capsys, argv)
    assert time.perf_counter() - start < 1
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and "user-node pairs" in err


ONES = {K: ",".join(["1"] * K) for K in (12000, 16000)}
HUGE_UNION = ("error: union instance with about 10^3000.0 users and 2 columns has about "
              "10^6000.3 user-node pairs, above the limit 2000000\n")


@pytest.mark.parametrize("argv, code, message", [
    (["macc", "tradeoff", "--K", str(10**19), "--L", "1"], 2,
     "error: the about 10^19.0 corners at (K, L) = (about 10^19.0, 1) would take more than "
     "1.5e+09 bit operations\n"),
    (["macc", "rate", "--K", str(10**155), "--L", "1", "--w", "1"], 0, ""),
    (["macc", "tradeoff", "--K", str(10**200), "--L", str(10**200)], 0, ""),
    (["macc", "rate", "--K", str(10**400), "--L", "1", "--w", "1"], 2,
     "error: R_new at K = about 10^400.0 is past the range of its cost estimate\n"),
    (["icp", "analyze", "--gaps", f"{10**3000},0", "--L", "1"], 2, HUGE_UNION),
    (["icp", "decode-test", "--gaps", f"{10**3000},0", "--L", "1", "--seed", "1"], 2,
     HUGE_UNION),
    (["macc", "simulate", "--K", "16000", "--L", "1", "--w", "8000",
      "--demands", ONES[16000], "--seed", "1"], 2,
     "error: (K, L, w) = (16000, 1, 8000) has about 10^4814.3 placement sets and about "
     "10^4818.2 delivery cells of about 10^4822.4 user-node pairs, above the limit 20000000\n"),
    (["macc", "simulate", "--K", "12000", "--L", "1", "--w", "6000",
      "--demands", ONES[12000], "--seed", "1"], 2,
     "error: (K, L, w) = (12000, 1, 6000) has about 10^3610.2 placement sets and about "
     "10^3614.0 delivery cells of about 10^3618.1 user-node pairs, above the limit 20000000\n"),
])
def test_huge_inputs_print_a_value_or_a_short_refusal(capsys, argv, code, message):
    # Counts past 10^18 print as powers of ten, and no estimate leaves the
    # float range: each exits 0 or 2 at once, never with a traceback.
    start = time.perf_counter()
    got, out, err = run(capsys, argv)
    assert time.perf_counter() - start < 2
    assert (got, err) == (code, message)
    assert len(err.encode()) < 300
    assert (out == "") == (code == 2)


BIG = str(10**4000)  # argparse reads up to 4,300 digits


@pytest.mark.parametrize("argv", [
    ["macc", "tradeoff", "--K", BIG, "--L", "1"],
    ["macc", "rate", "--K", BIG, "--L", "1", "--w", "0"],
    ["macc", "rate", "--K", "100", "--L", BIG, "--w", "1"],
    ["macc", "simulate", "--K", BIG, "--L", "1", "--w", "1", "--demands", "1", "--seed", "1"],
    ["icp", "decode-test", "--gaps", "2,1,0", "--L", "2", "--seed", "1", "--field", BIG],
    ["icp", "decode-test", "--gaps", "2,1,0", "--L", "2", "--seed", "1", "--field", "-" + BIG],
    ["icp", "decode-test", "--gaps", "2,1,0", "--L", "2", "--seed", "1", "--trials", "-" + BIG],
    ["macc", "tradeoff", "--K", "100", "--L", "1", "--samples", BIG],
    ["macc", "rate", "--K", str(10**300), "--L", "1", "--w", str(10**299)],
])
def test_refusals_print_typed_integers_as_counts(capsys, argv):
    # Each refusal echoes a typed integer of 300 to 4,001 digits: as a power
    # of ten, the message stays one short line.
    code, out, err = run(capsys, argv)
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and err.count("\n") == 1 and "Traceback" not in err
    assert len(err.encode()) < 300


def test_macc_rate_prints_past_the_float_range_of_k_squared(capsys):
    K = 10**155  # K * K is past the floats; the rate's estimate is not
    code, out, _ = run(capsys, ["macc", "rate", "--K", str(K), "--L", "1", "--w", "1"])
    assert code == 0
    assert f"R_HKD: {K - 1}/2 (5e+154)" in out.splitlines()


@pytest.mark.parametrize("command", [["analyze"], ["decode-test", "--seed", "1"]])
def test_oversized_gaps_refused_before_canonicalizing(capsys, monkeypatch, command):
    # 20,000 zero gaps: K = i = 20,000, so 8e12 user-node pairs.  The count is
    # the same for every rotation, so the O(i^2) canonical rotation never runs.
    import sicps.icp as icp

    rotated = []
    monkeypatch.setattr(icp, "canonical_rotation", rotated.append)
    start = time.perf_counter()
    code, out, err = run(capsys, ["icp", *command, "--gaps", ",".join(["0"] * 20000),
                                  "--L", "1"])
    assert time.perf_counter() - start < 1
    assert (code, out, rotated) == (2, "", [])
    assert err == ("error: union instance with 20000 users and 20000 columns has "
                   "8000000000000 user-node pairs, above the limit 2000000\n")


def test_a_fault_inside_theorem5_is_not_read_as_inapplicable(capsys, monkeypatch):
    # Theorem 5 applies to (2,2)/L=7 (K = 12, six colors); a ValueError raised
    # inside its coloring must surface, not turn "exact: 6" into "unknown".
    import sicps.coloring as coloring

    original = coloring.circulant_coloring

    def faulty(graph, n, shifts):
        if n != graph.K:
            raise ValueError("an internal fault")
        return original(graph, n, shifts)

    monkeypatch.setattr(coloring, "circulant_coloring", faulty)
    code, out, err = run(capsys, ["icp", "analyze", "--gaps", "2,2", "--L", "7"])
    assert (code, out, err) == (2, "", "error: an internal fault\n")


def test_internal_fault_exits_four_after_its_traceback(capsys, monkeypatch):
    # An exception that is neither a ValueError nor an OSError is a fault of
    # the library: exit 4, its traceback, then one line naming it.
    import sicps.bounds as bounds

    def faulty(spec):
        raise ZeroDivisionError("an internal fault")

    monkeypatch.setattr(bounds, "lower_bound_mais_constructive", faulty)
    code, out, err = run(capsys, ["icp", "analyze", "--gaps", "2,1,0", "--L", "2"])
    assert (code, out) == (4, "")
    lines = err.splitlines()
    assert lines[0] == "Traceback (most recent call last):"
    assert lines[-2:] == ["ZeroDivisionError: an internal fault",
                          "internal error: ZeroDivisionError: an internal fault"]


@pytest.mark.parametrize("argv", [
    ["icp", "analyze", "--gaps", "2,2", "--L", "7"],
    ["icp", "decode-test", "--gaps", "2,1,0", "--L", "2", "--seed", "1", "--trials", "2"],
])
def test_text_output_builds_no_json_payload(capsys, monkeypatch, argv):
    from sicps.bounds import BoundReport

    def unused(*_):
        raise AssertionError("the text branch built a JSON payload")

    monkeypatch.setattr(BoundReport, "to_json", unused)
    monkeypatch.setattr(cli, "_scheme_json", unused)
    code, out, _ = run(capsys, argv)
    assert code == 0 and out.startswith("gaps: ")


def test_macc_simulate_failure_exits_three(capsys, monkeypatch):
    import sicps.macc as macc
    import sicps.scheme as scheme

    monkeypatch.setattr(scheme, "decode_node", corrupted_decode_node)
    demands = [3, 1, 4, 1, 5, 2, 6, 8]
    code, out, _ = run(
        capsys,
        ["macc", "simulate", "--K", "8", "--L", "2", "--w", "2",
         "--demands", ",".join(map(str, demands)), "--seed", "1"],
    )
    assert code == 3
    payload = json.loads(out)
    assert payload["decoded_ok"] is False
    failures = payload["failures"]
    first = failures[0]
    assert {"representative", "user", "file", "cache_set", "part",
            "expected", "decoded", "m", "unknown_colors"} <= set(first)
    assert all(f["file"] == demands[f["user"] - 1] for f in failures)
    # Every node fails, in order (user, column), so the 15th failure of the
    # one-column class (1,1,1), split three ways, is user 5's third part.
    cells = reference_delivery_table(macc.CcdnConfig(N=8, K=8, L=2), 2, demands)[(1, 1, 1)]
    ones = [f for f in failures if f["representative"] == [1, 1, 1]]
    assert len(ones) == 8 * 3
    assert {k: ones[14][k] for k in ("user", "file", "cache_set", "part")} == {
        "user": 5, "file": cells[4][0], "cache_set": list(cells[4][1]), "part": 3
    }
    # Symbols are drawn per new (subfile, part) in order (column, user): user
    # 1's three columns of the first class get the 1st, 9th and 17th draws.
    assert [f["expected"] for f in failures[:8]] == [244, 17, 250, 244, 0, 150, 22, 113]
    # Each failure names its user's unknown colors: m of them, the most being chi.
    chis = {tuple(c["representative"]): c["chi"] for c in payload["classes"]}
    assert all(len(f["unknown_colors"]) == f["m"] <= chis[tuple(f["representative"])]
               and f["unknown_colors"] == sorted(set(f["unknown_colors"])) for f in failures)
    for rep, chi in chis.items():
        assert max(f["m"] for f in failures if tuple(f["representative"]) == rep) == chi


def test_unknown_flag_usage_error():
    with pytest.raises(SystemExit) as exc:
        cli.main(["icp", "analyze", "--gaps", "2,1,0", "--L", "2", "--bogus"])
    assert exc.value.code == 2


def test_outputs_are_deterministic(capsys):
    argv = ["macc", "simulate", "--N", "8", "--K", "8", "--L", "2", "--w", "2",
            "--demands", "1,2,3,4,5,6,7,8", "--seed", "11"]
    _, first, _ = run(capsys, argv)
    _, second, _ = run(capsys, argv)
    assert first == second

    argv = ["icp", "analyze", "--gaps", "3,2,1", "--L", "2", "--format", "json"]
    _, first, _ = run(capsys, argv)
    _, second, _ = run(capsys, argv)
    assert first == second


# Exact stdout of a few runs, pinned byte for byte in tests/golden/<name>.<format>:
# colorings, row counts, rates, curves and decode results may not drift under a
# change that is meant to compute the same thing faster.
GOLDEN_RUNS = {
    "simulate_8_2_2": ["macc", "simulate", "--N", "6", "--K", "8", "--L", "2", "--w", "2",
                       "--demands", "3,1,4,1,5,2,6,5", "--seed", "3"],
    "simulate_12_2_3": ["macc", "simulate", "--K", "12", "--L", "2", "--w", "3",
                        "--demands", "12,11,10,9,8,7,6,5,4,3,2,1", "--seed", "5"],
    "simulate_13_3_2": ["macc", "simulate", "--N", "5", "--K", "13", "--L", "3", "--w", "2",
                        "--demands", "1,2,3,4,5,1,2,3,4,5,1,2,3", "--seed", "9"],
    "decode_test": ["icp", "decode-test", "--gaps", "9,7,5,3,1", "--L", "3",
                    "--trials", "2", "--seed", "4"],
    # The oracle runs and `exact` is unknown; Theorem 5 applies and `exact`
    # is 5; Theorem 5's 6 beats Theorem 1's 8 and meets the oracle, so
    # `exact` is 6; the oracle is skipped.
    "analyze_2_1_0_L2": ["icp", "analyze", "--gaps", "2,1,0", "--L", "2"],
    "analyze_2_1_L1": ["icp", "analyze", "--gaps", "2,1", "--L", "1"],
    "analyze_2_2_L7": ["icp", "analyze", "--gaps", "2,2", "--L", "7"],
    "analyze_9_7_5_3_1_L3": ["icp", "analyze", "--gaps", "9,7,5,3,1", "--L", "3"],
    # The README example, and a fractional K/L whose top corner is appended.
    "tradeoff_100_40_4": ["macc", "tradeoff", "--N", "100", "--K", "40", "--L", "4",
                          "--samples", "20"],
    "tradeoff_9_9_2": ["macc", "tradeoff", "--N", "9", "--K", "9", "--L", "2", "--samples", "7"],
}


@pytest.mark.parametrize("name, fmt", [
    (name, fmt) for name, argv in GOLDEN_RUNS.items()
    for fmt in (("csv", "json") if argv[1] == "tradeoff" else ("text", "json"))
])
def test_stdout_matches_golden(capsys, name, fmt):
    golden = Path(__file__).resolve().parent / "golden" / f"{name}.{fmt}"
    code, out, err = run(capsys, GOLDEN_RUNS[name] + ["--format", fmt])
    assert (code, err) == (0, "")
    assert out == golden.read_text(encoding="utf-8")


# The sha256 of `macc tradeoff --N 100 --K K --L L --samples 100` at the
# benchmark's sizes, too long to keep as golden files; CI checks (600, 3)'s
# CSV through the installed entry point.
TRADEOFF_DIGESTS = {
    (1000, 10, "csv"): "5fc44ef633e98bc431679e8eb09c1cdc14c3495d64fa45a926df55bbfb622fe9",
    (1000, 10, "json"): "e34f8185929030ebf699a04e54aa9d4762abb6aef3c1afc211181eb8c9da24f0",
    (600, 3, "csv"): "01d6fa2dcf92dcf42a8cb800ab549b8ab5ee2817570fb89baa7af90daddae69c",
    (600, 3, "json"): "b33e61471247525abbe74a1a8ecd10bd83150e072341de71867b353b862ebc12",
    (2000, 50, "csv"): "6f9ba89da53b439717f4b10927ce2f16a1b4fb8a7d9dda4a70561f8c7f00932f",
    (2000, 50, "json"): "b476ca5d137f92be1d197f879f453752015e7bd946b911b69988733966df1eb2",
}


@pytest.mark.parametrize("K, L, fmt", TRADEOFF_DIGESTS)
def test_tradeoff_at_benchmark_sizes_matches_its_digest(capsys, K, L, fmt):
    code, out, err = run(capsys, ["macc", "tradeoff", "--N", "100", "--K", str(K), "--L", str(L),
                                  "--samples", "100", "--format", fmt])
    assert (code, err) == (0, "")
    assert hashlib.sha256(out.encode()).hexdigest() == TRADEOFF_DIGESTS[K, L, fmt]


# The sha256 of `macc simulate --K K --L L --w w --demands <k % 5 + 1 for k < K>
# --seed 3` at the benchmark's sizes, taken before symbols were keyed by
# cache-set masks; CI checks (16, 2, 3) through the installed entry point.
SIMULATE_DIGESTS = {
    (16, 2, 3): "6a727913cf4872b55524b526ecc757f9d7942d6dfbaa17e83f75e65728825151",
    (13, 3, 2): "5178655d3733acc7fea4421aeaa65a33d3c223e6a20e227eb8c270fb35bef1b0",
    (12, 1, 3): "b29caed906d995ba6227b5fb1b8319ebd792dac244df7f94a6f05cabdb5a22f6",
}


@pytest.mark.parametrize("K, L, w", SIMULATE_DIGESTS)
def test_simulate_at_benchmark_sizes_matches_its_digest(capsys, K, L, w):
    demands = ",".join(str(k % 5 + 1) for k in range(K))
    code, out, err = run(capsys, ["macc", "simulate", "--K", str(K), "--L", str(L), "--w", str(w),
                                  "--demands", demands, "--seed", "3"])
    assert (code, err) == (0, "")
    assert hashlib.sha256(out.encode()).hexdigest() == SIMULATE_DIGESTS[K, L, w]


def test_readme_cli_examples_run(capsys, monkeypatch, tmp_path):
    # Every `sicps ...` line of the README's CLI block exits 0, so a README
    # that drifts from the flags fails here.
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    block = readme.split("## CLI", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    lines = [line for line in block.splitlines() if line.startswith("sicps ")]
    assert len(lines) >= 6
    monkeypatch.chdir(tmp_path)  # --out files land here
    for line in lines:
        code, _, err = run(capsys, shlex.split(line)[1:])
        assert code == 0, (line, err)


def outcome(argv, out_path):
    """Exit code, stdout, stderr and `--out` file of one `main` call; the file is removed."""
    with redirect_stdout(io.StringIO()) as out, redirect_stderr(io.StringIO()) as err:
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse usage errors and --help
            code = exc.code
    written = out_path.read_text(encoding="utf-8") if out_path.exists() else None
    out_path.unlink(missing_ok=True)
    return code, out.getvalue(), err.getvalue(), written


def mixed_argvs(out_path):
    """Every subcommand, with and without optional flags, around usage errors and help."""
    analyze = ["icp", "analyze", "--gaps", "2,1,0", "--L", "2"]
    decode = ["icp", "decode-test", "--gaps", "2,1,0", "--L", "2", "--trials", "2",
              "--seed", "1"]
    rate = ["macc", "rate", "--K", "8", "--L", "2", "--w", "2"]
    tradeoff = ["macc", "tradeoff", "--K", "8", "--L", "2", "--samples", "3"]
    simulate = ["macc", "simulate", "--K", "6", "--L", "2", "--w", "2",
                "--demands", "1,2,3,4,5,6", "--seed", "3"]
    return [
        analyze + ["--format", "json"],
        tradeoff + ["--out", str(out_path)],
        decode + ["--field", "11"],
        analyze + ["--bogus"],
        rate + ["--N", "10", "--format", "json"],
        tradeoff,
        decode,
        ["icp", "analyze", "--gaps", "2,,1", "--L", "2"],
        rate,
        simulate + ["--N", "8", "--format", "text"],
        decode[:-2],  # no --seed
        simulate,
        ["icp", "analyze", "--help"],
        analyze,
        tradeoff + ["--format", "json", "--N", "9"],
        ["macc", "simulate", "--help"],
        decode + ["--format", "json"],
        rate + ["--bogus"],
        ["--help"],
        tradeoff + ["--out", str(out_path), "--format", "json"],
    ]


def test_main_builds_its_parser_once(monkeypatch, tmp_path):
    out_path = tmp_path / "curve.csv"
    real_build = cli.build_parser
    builds = []

    def counted():
        builds.append(1)
        return real_build()

    monkeypatch.setattr(cli, "build_parser", counted)
    cli._parser.cache_clear()
    try:
        argvs = mixed_argvs(out_path)
        assert len(argvs) == 20
        for argv in argvs:
            outcome(argv, out_path)
    finally:
        cli._parser.cache_clear()
    assert len(builds) == 1
    assert real_build() is not real_build()


def test_shared_parser_keeps_no_state_between_calls(monkeypatch, tmp_path):
    # Each call through the one shared parser gives what a freshly built
    # parser gives for the same argv, whatever ran before it.
    out_path = tmp_path / "curve.csv"
    for argv in mixed_argvs(out_path):
        shared = outcome(argv, out_path)
        with monkeypatch.context() as patch:
            patch.setattr(cli, "_parser", cli.build_parser)
            fresh = outcome(argv, out_path)
        assert shared == fresh, argv
