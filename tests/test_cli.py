import json

import pytest

from cmpplab import cli
from cmpplab.series import QSeries


def run(capsys, *argv):
    code = cli.main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_expand_tsv(capsys):
    code, out = run(capsys, "expand", "--series", "gen_fun(A,1,boundary=0:1)",
                    "--order", "6", "--format", "tsv")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "# order=6 floor=0"
    rows = [tuple(int(v) for v in ln.split("\t")) for ln in lines[1:]]
    total_q6 = sum(c for (dz, dw, dq, c) in rows if dq == 6)
    assert total_q6 == 3  # first Rogers-Ramanujan count at q^6


def test_expand_json_roundtrip(capsys):
    code, out = run(capsys, "expand", "--series", "theta(1,5)",
                    "--order", "6", "--format", "json")
    assert code == 0
    obj = json.loads(out)
    assert obj["order"] == 6
    assert {(r["dq"], r["coeff"]) for r in obj["terms"]} == \
        {(0, "1"), (1, "-1"), (4, "-1"), (5, "1"), (6, "-1")}
    assert json.dumps(obj, sort_keys=True) == \
        json.dumps(json.loads(json.dumps(obj, sort_keys=True)),
                   sort_keys=True)


def test_expand_errors(capsys):
    with pytest.raises(SystemExit):
        cli.parse_series("nonsense(1,2)", 5)
    with pytest.raises(SystemExit):
        cli.parse_series("gen_fun[A]", 5)
    with pytest.raises(SystemExit):
        cli.parse_series("f_sum(2)", 5)


def test_expand_series_builders():
    # each builder parses both positional and keyword forms
    for text in ("gen_fun(A,1,boundary=0:1)", "gen_fun(A,1,0:1)",
                 "char_product(A,nonstandard,1,weight=0:1)",
                 "theta(1,5)", "poch(1,1)", "qbin(4,2,1)",
                 "f_sum(2,1,1)", "ag_sum(2,1)", "shun(2)",
                 "shun2(2,kL1)", "wz(B)", "s_series(0,0,0,0)",
                 "hl_chain(1,2)", "hl_inf(shape=2:2,m=3)", "hl_inf(2:2,3)",
                 "gow(2,1,0)", "gordon_product(2,1)"):
        s = cli.parse_series(text, 6)
        assert s.q_order is None or s.q_order >= 6, text


@pytest.mark.parametrize("positional, keyword", [
    ("hl_inf(2,3)", "hl_inf(shape=2,m=3)"),
    ("gen_fun(C,0,2)", "gen_fun(C,0,boundary=2)"),
])
def test_one_entry_tuple_binds_in_either_form(capsys, positional, keyword):
    # a single int where a tuple is declared is its 1-tuple
    outs = [run(capsys, "expand", "--series", text, "--order", "8")
            for text in (positional, keyword)]
    assert outs[0] == outs[1] and outs[0][0] == 0
    assert outs[0][1].count("\n") > 2


@pytest.mark.parametrize("check, params", [
    ("con-cn1", "n=0,weights=3"),
    ("spec-char", "family=A,n=1,two_k=2,two_lambda=2"),
])
def test_one_entry_tuple_parameter_verifies(capsys, check, params):
    # a single int given for a tuple parameter is its 1-tuple
    code, out = run(capsys, "verify", "--check", check, "--params", params,
                    "--order", "5")
    assert code == 0
    assert json.loads(out)["status"] == "pass"


def test_verify_pass(capsys):
    code, out = run(capsys, "verify", "--check", "gordon",
                    "--params", "k=1,a=1", "--order", "40")
    assert code == 0
    rep = json.loads(out)
    assert rep["status"] == "pass"
    assert rep["conjecture_status"] == "proved"
    assert rep["first_mismatch"] is None
    assert set(rep) == {"check", "params", "order", "status",
                        "first_mismatch", "elapsed_ms", "conjecture_status"}


def test_verify_trivial_order_zero(capsys):
    code, out = run(capsys, "verify", "--check", "con-a2n2",
                    "--params", "n=2,weights=0:0:1", "--order", "0")
    assert code == 0
    assert json.loads(out)["status"] == "pass"


def test_verify_usage_error(capsys):
    code, _ = run(capsys, "verify", "--check", "gordon",
                  "--params", "k=1", "--order", "10")
    assert code == 1
    code, _ = run(capsys, "verify", "--check", "bogus", "--params", "",
                  "--order", "10")
    assert code == 1


def test_sweep_deterministic_across_jobs(capsys):
    args = ("sweep", "--check", "rogers-selberg", "--grid", "k=1:3,a=0:k",
            "--order", "12")
    code1, out1 = run(capsys, *args)
    code2, out2 = run(capsys, *args, "--jobs", "2")
    code3, out3 = run(capsys, *args, "--jobs", "3")
    assert code1 == code2 == code3 == 0
    assert out1 == out2 == out3
    reports = [json.loads(ln) for ln in out1.strip().splitlines()]
    assert len(reports) == 9  # (k,a): k=1..3, a=0..k
    assert all(r["status"] == "pass" for r in reports)
    assert all(r["elapsed_ms"] == 0 for r in reports)


def test_sweep_fixes_a_tuple_parameter(capsys):
    # a grid value with two or more ':' is a fixed tuple, as in --params
    code, out = run(capsys, "sweep", "--check", "con-a2n2",
                    "--grid", "n=2:2,weights=0:0:1", "--order", "5")
    assert code == 0
    swept = json.loads(out)
    code, out = run(capsys, "verify", "--check", "con-a2n2",
                    "--params", "n=2,weights=0:0:1", "--order", "5")
    assert code == 0
    verified = json.loads(out)
    del swept["elapsed_ms"], verified["elapsed_ms"]
    assert swept == verified


def test_sweep_pool_is_no_larger_than_the_grid(monkeypatch, capsys):
    # a pool starts all its workers at once; the fake maps in-process
    import multiprocessing
    sizes = []

    class FakePool:
        def __init__(self, processes):
            sizes.append(processes)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, tasks):
            return [fn(t) for t in tasks]

    monkeypatch.setattr(multiprocessing, "Pool", FakePool)
    base = ("sweep", "--check", "gordon", "--order", "5", "--jobs", "8")
    assert run(capsys, *base, "--grid", "k=1:1,a=0:1")[0] == 0
    assert sizes == [2]
    code, out = run(capsys, *base, "--grid", "k=1:1,a=1:1")
    assert code == 0 and len(out.splitlines()) == 1
    assert sizes == [2]  # one point runs in-process


def test_sweep_skips_invalid_points(capsys):
    code, out = run(capsys, "sweep", "--check", "d2-nis2",
                    "--grid", "k=2:2,a=0:2,b=0:2", "--order", "8")
    assert code == 0
    reports = [json.loads(ln) for ln in out.strip().splitlines()]
    # only a+b <= k-1 survive: (0,0),(0,1),(1,0)
    assert len(reports) == 3


def test_sweep_exit_codes_match_status(capsys):
    code, out = run(capsys, "sweep", "--check", "con-shun",
                    "--grid", "k=0:2", "--order", "10")
    assert code == 0


def test_list_checks(capsys):
    # the names come from each builder's signature: positional parameters
    # with and without defaults, then the keyword-only ones bracketed
    code, out = run(capsys, "list-checks")
    assert code == 0
    assert "rogers-selberg" in out
    lines = {ln.split()[0]: ln for ln in out.splitlines()}
    assert lines["mr-system"] == (
        "mr-system              (n, a, branch)  level-one system equivalent "
        "to the rank-2 cylindric recurrences")
    assert lines["con-a2n2"] == (
        "con-a2n2               (n, [weights])  counts of the A-family equal "
        "the non-standard character product")
    assert lines["macdonald-d"] == (
        "macdonald-d            (base, sigma, tau, [e1], [e2], [e3], [e4])  "
        "the type-D determinant sum equals 4 Pi_{D;sigma,tau}")
    assert lines["mac-quasiperiod"] == (
        "mac-quasiperiod        (kind, base, sigma, tau, [e1], [e2], [e3], "
        "[e4])  shifting e1 by the base changes both sides by the same "
        "signed monomial")
    assert lines["spec-char"] == (
        "spec-char              (family, n, two_k, [two_lambda])  the "
        "specialised character determinant sum equals the product "
        "(integral data) or vanishes (half-integral data)")
    assert lines["jms"] == (
        "jms                    (n, a)  level-one A-family counts equal "
        "the modulus-(2n+3) product")
    assert lines["dk1"] == (
        "dk1                    (n, a)  level-one D-family counts equal "
        "the modulus-(2n+2) product")
    assert lines["c-level1"] == (
        "c-level1               (n, a)  level-one C-family counts equal "
        "the modulus-(2n+4) product")
    assert lines["con-dn2"] == (
        "con-dn2                (n, [weights])  counts of the D-family "
        "equal the non-standard character product")
    assert lines["level-rank-gen1"] == (
        "level-rank-gen1        (k, n)  phi_n of the level-2k vacuum "
        "weight matches phi_k of the level-2n vacuum weight")
    assert lines["level-rank-gen2"] == (
        "level-rank-gen2        (k, n)  the (k-2)L0+2L1 duality pattern")
    assert lines["level-rank-gen3"] == (
        "level-rank-gen3        (k, n)  the (k-3)L0+2L1+L2 duality "
        "pattern")
    assert lines["macdonald-b"] == (
        "macdonald-b            (base, sigma, [e1], [e2], [e3], [e4])  "
        "the type-B determinant sum equals 2 Pi_{B;sigma}")
    assert lines["con-c-qseries"] == (
        "con-c-qseries          (n, k)  C_{kL0}(z,q) = HL_{k,2n}(z,q)")
    assert lines["con-d-qseries"] == (
        "con-d-qseries          (n, k)  D_{kL0}(z,q) = "
        "HL_{k,2n-2}(zq,q), n >= 2")
    assert lines["wz-edge"] == (
        "wz-edge                (which, edge)  boundary reductions of "
        "the deformed series: w=0 gives the rank-1 series in (z,q), z=0 "
        "the same in (w,q^2)")
    assert lines["guess-reduction"] == (
        "guess-reduction        (k, which, edge)  w=0 / z=0 reductions "
        "of the conjectured k-fold interwoven sums")
    assert lines["con-shun2"] == (
        "con-shun2              (k, variant)  the three rank-2 double "
        "multisums against enumeration; variant in {kL0, kL1, omega}")
    assert lines["ag-type-product"] == (
        "ag-type-product        (k, which)  the four conjectural "
        "Andrews-Gordon-type product identities; which in {c-kL0, d-kL0, "
        "d-kL1, d-omega}")


def test_mismatch_reporting_paths(monkeypatch, capsys):
    # a mismatching conjectural entry is a finding (exit 3), a proved one
    # a failure (exit 2); both carry a certificate, neither crashes
    from cmpplab import funceq
    from cmpplab.funceq import Check, Term
    from cmpplab.products import ProductSpec

    def make(status):
        def build():
            return [Term(1, ("prodspec", ProductSpec()))], status
        return Check("synthetic", (), build, "test entry")

    monkeypatch.setitem(funceq.CHECKS, "synthetic", make("conjectural"))
    code, out = run(capsys, "verify", "--check", "synthetic",
                    "--params", "", "--order", "5")
    assert code == 3
    rep = json.loads(out)
    assert rep["status"] == "finding"
    assert rep["first_mismatch"] == {"dz": 0, "dw": 0, "dq": 0,
                                     "lhs": "1", "rhs": "0"}

    monkeypatch.setitem(funceq.CHECKS, "synthetic", make("proved"))
    code, out = run(capsys, "verify", "--check", "synthetic",
                    "--params", "", "--order", "5")
    assert code == 2
    assert json.loads(out)["status"] == "fail"


def test_mismatch_report_names_the_least_key(monkeypatch, capsys):
    # the sides differ at five keys, two of them below q^0; the report
    # names the lexicographically least (dz, dw, dq), not the least dq,
    # with each side's coefficient summed over its terms
    from cmpplab import funceq
    from cmpplab.funceq import Check, Term
    from cmpplab.products import ProductSpec

    one = ("prodspec", ProductSpec())

    def build():
        # 5/q + 1 - 1/q  =  4/q + z + 4 q^3 + 3 z/q^2 - 2/q
        return [Term(1, one, pref=((5, 0, 0, -1), (1, 0, 0, 0))),
                Term(1, one, pref=((-1, 0, 0, -1),)),
                Term(-1, one, pref=((4, 0, 0, -1), (1, 1, 0, 0),
                                    (4, 0, 0, 3), (3, 1, 0, -2))),
                Term(-1, one, pref=((-2, 0, 0, -1),))], "proved"

    monkeypatch.setitem(funceq.CHECKS, "synthetic",
                        Check("synthetic", (), build, "test entry"))
    code, out = run(capsys, "verify", "--check", "synthetic",
                    "--params", "", "--order", "5")
    assert code == 2
    assert json.loads(out)["first_mismatch"] == {"dz": 0, "dw": 0, "dq": -1,
                                                 "lhs": "4", "rhs": "2"}
    res, _ = funceq.residual(funceq.catalog("synthetic", {}), 5)
    assert res == QSeries({(0, 0, -1): 2, (0, 0, 0): 1, (1, 0, 0): -1,
                           (0, 0, 3): -4, (1, 0, -2): -3}, 5, -2)


@pytest.mark.parametrize("argv, message", [
    (("sweep", "--check", "jtp", "--grid", "a=1:2,m=0:0", "--order", "5"),
     "no grid point is in range for jtp: m >= 1"),
    (("expand", "--series", "hl_chain(k=1,k=2,n=2)", "--order", "3"),
     "argument 'k' given twice"),
    (("expand", "--series", "gen_fun(A,boundary=0:1,1)", "--order", "3"),
     "bad arguments for gen_fun: positional argument follows keyword "
     "argument"),
])
def test_usage_error_names_the_reason(capsys, argv, message):
    assert cli.main(list(argv)) == 1
    assert capsys.readouterr().err == "error: %s\n" % message


def test_param_parsing():
    assert cli.parse_params("k=1,a=2") == {"k": 1, "a": 2}
    assert cli.parse_params("weights=0:0:1,family=C") == \
        {"weights": (0, 0, 1), "family": "C"}
    assert cli.parse_params("") == {}
    grid = cli.parse_grid("k=1:2,a=0:k")
    assert grid == [{"k": 1, "a": 0}, {"k": 1, "a": 1},
                    {"k": 2, "a": 0}, {"k": 2, "a": 1}, {"k": 2, "a": 2}]


def test_sweep_timings_reach_run_check(monkeypatch, capsys):
    seen = []
    real = cli.run_check

    def spy(check_id, params, order, timings=True):
        seen.append(timings)
        return real(check_id, params, order, timings=timings)

    monkeypatch.setattr(cli, "run_check", spy)
    args = ("sweep", "--check", "gordon", "--grid", "k=1:1,a=0:1",
            "--order", "5", "--jobs", "1")
    assert run(capsys, *args)[0] == 0
    assert seen == [False, False]
    seen.clear()
    assert run(capsys, *args, "--timings")[0] == 0
    assert seen == [True, True]


@pytest.mark.parametrize("argv", [
    ("verify", "--check", "gordon", "--params", "k=1,a=1", "--order", "-3"),
    ("expand", "--series", "theta(1,5)", "--order", "-2"),
    ("sweep", "--check", "gordon", "--grid", "k=1:2,a=0:k", "--order", "-1"),
    ("verify", "--check", "gordon", "--params", "k=abc,a=1", "--order", "5"),
    ("verify", "--check", "con-a2n2", "--params", "n=2,weights=1:x",
     "--order", "5"),
    ("expand", "--series", "nonsense(1,2)", "--order", "5"),
    ("sweep", "--check", "gordon", "--grid", "k=abc,a=0:1", "--order", "3"),
    ("sweep", "--check", "gordon", "--grid", "k=1:2,a=0:z", "--order", "3"),
    ("verify", "--check", "jtp", "--params", "a=1,m=0", "--order", "5"),
] + [("expand", "--series", text, "--order", "3")
     for text in ("shun(-1)", "f_sum(0,0,1)", "theta(1,0)", "hl_chain(1,0)",
                  "poch(0,1)", "gen_fun(Q,1,boundary=1:0)", "qbin(2,1,0)",
                  "qbin(3,1,-1)", "wz(A,5)")
] + [("verify", "--check", check, "--params", params, "--order", "3")
     for check, params in (("macdonald-b", "base=0,e1=1"),
                           ("macdonald-d", "base=-2,e1=1,e2=2"),
                           ("mac-quasiperiod", "kind=B,base=0,e1=1"),
                           ("gordon", "k=1,a=0,kk=3"),
                           ("cdn2", "k=1,a=0,n=5"),
                           ("macdonald-b", "base=3,e1=1,tau=-1"),
                           ("gordon", "k=1,a=0,k=2"),
                           ("macdonald-b", "base=3,e2=2"),
                           ("macdonald-b", "base=3,e1=2,e3=1"))
] + [("sweep", "--check", "gordon", "--grid", grid, "--order", "3")
     for grid in ("k=1:2", "k=1:1,a=0:1,kk=0:1", "k=1:1,a=0:1,k=2:2")
] + [("expand", "--series", text, "--order", "3")
     for text in ("poch(1,1,7)", "hl_chain(2,2,3)", "hl_chain(2,2,foo=1)",
                  "theta(1,5,9)", "gen_fun(A,1,0:1,boundary=1:0)")
] + [("sweep", "--check", "con-a2n2", "--grid", "n=1:1,weights=1:0",
      "--order", "3")
] + [("sweep", "--check", check, "--grid", grid, "--order", "5")
     for check, grid in (("jtp", "a=1:2,m=0:0"),
                         ("con-c-qseries", "n=0:0,k=0:3"))
] + [("expand", "--series", text, "--order", "3")
     for text in ("hl_chain(k=1,k=2,n=2)",
                  "gen_fun(A,1,boundary=0:1,boundary=1:0)")
] + [("verify", "--check", check, "--params", params, "--order", order)
     for check, params, order in (
         ("gow", "r=-1,n=1,delta=0", "6"),
         ("con-shun2", "k=-1", "6"),
         ("ag-type-product", "k=-1", "6"),
         ("jtp", "a=x,m=1", "5"),
         ("macdonald-b", "base=7,e1=x", "5"),
         ("macdonald-d", "base=8,e1=x,e2=1", "5"),
         ("mac-quasiperiod", "kind=B,base=7,e1=3,e2=x", "5"))
] + [("expand", "--series", "gen_fun(A,boundary=0:1,1)", "--order", "3")
] + [("expand", "--series", text, "--order", "5")
     for text in ("gow(1,-1,1)", "gow(-1,0,1)", "gow(2,0,0)",
                  "gordon_product(1,5)", "gordon_product(1,-1)")])
def test_bad_input_is_a_one_line_usage_error(capsys, argv):
    assert cli.main(list(argv)) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: "), lines


def test_bad_jobs_variable_is_a_usage_error_for_sweep_only(monkeypatch,
                                                           capsys):
    monkeypatch.setenv("CMPPLAB_JOBS", "x")
    assert run(capsys, "list-checks")[0] == 0
    assert cli.main(["sweep", "--check", "gordon", "--grid", "k=1:1,a=0:1",
                     "--order", "3"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: CMPPLAB_JOBS must be an integer\n"


@pytest.mark.parametrize("argv", [
    ("verify", "--check", "bogus", "--order", "3"),
    ("sweep", "--check", "bogus", "--grid", "k=1:2", "--order", "3"),
])
def test_unknown_check_message_is_unquoted(capsys, argv):
    assert cli.main(list(argv)) == 1
    assert capsys.readouterr().err == \
        "error: unknown check 'bogus' (see list-checks)\n"


def test_sweep_skips_out_of_range_jtp_points(capsys):
    code, out = run(capsys, "sweep", "--check", "jtp",
                    "--grid", "a=1:2,m=0:1", "--order", "5")
    assert code == 0
    params = [json.loads(ln)["params"] for ln in out.strip().splitlines()]
    assert params == [{"a": 1, "m": 1}, {"a": 2, "m": 1}]


def test_error_evaluating_a_valid_spec_propagates(monkeypatch, capsys):
    def broken(spec, N):
        raise ValueError("builder bug")

    monkeypatch.setattr(cli.funceq, "residual", broken)
    with pytest.raises(ValueError, match="builder bug"):
        cli.main(["verify", "--check", "gordon", "--params", "k=1,a=1",
                  "--order", "5"])
