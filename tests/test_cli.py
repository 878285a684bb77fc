"""Command line behavior: exit codes, file contracts, number formatting."""

import csv
import dataclasses
import json
import subprocess
import sys

import pytest

from slabpricing import BUNDLED_SCENARIOS, bundled_scenario_path, demand_convex_pair, parse_scenario
from slabpricing.cli import format_number, main, run

CONVEX = str(bundled_scenario_path("paper_convex"))


def read_rows(path):
    with open(path, encoding="utf-8", newline="") as handle:
        return list(csv.reader(handle))


def mutated_scenario(tmp_path, name, mutate):
    """Copy a bundled scenario, apply an in-place edit, return the new path."""
    with open(bundled_scenario_path(name), encoding="utf-8") as handle:
        doc = json.load(handle)
    mutate(doc)
    path = tmp_path / f"{name}_edited.scn"
    path.write_text(json.dumps(doc), encoding="utf-8")
    return str(path)


def equilibrium_edit(key, value):
    """An edit that sets one field of the equilibrium request."""

    def edit(doc):
        doc["analysis"]["equilibrium"][key] = value

    return edit


def snapshot(directory):
    """File name to bytes, or None when the directory is absent."""
    return {p.name: p.read_bytes() for p in directory.iterdir()} if directory.exists() else None


# ---------------------------------------------------------------------------
# exit codes


def test_respond_succeeds_and_reports_the_file(tmp_path, capsys):
    out = tmp_path / "out"
    assert run(["--scenario", CONVEX, "--out", str(out), "respond"]) == 0
    stdout = capsys.readouterr().out
    assert f"wrote {out / 'response.csv'}" in stdout


def test_existing_output_requires_overwrite(tmp_path, capsys):
    out = str(tmp_path / "out")
    assert run(["--scenario", CONVEX, "--out", out, "respond"]) == 0
    assert run(["--scenario", CONVEX, "--out", out, "respond"]) == 2
    assert "pass --overwrite to replace it" in capsys.readouterr().err
    assert run(["--scenario", CONVEX, "--out", out, "--overwrite", "respond"]) == 0


def test_scenario_flag_is_required(tmp_path, capsys):
    assert run(["--out", str(tmp_path), "respond"]) == 2
    assert "error[usage]: --scenario is required" in capsys.readouterr().err


def test_missing_scenario_file(tmp_path, capsys):
    assert run(["--scenario", str(tmp_path / "absent.scn"), "respond"]) == 2
    assert capsys.readouterr().err.startswith("error[usage]:")


def test_reproduce_refuses_a_scenario(tmp_path, capsys):
    # the battery runs the bundled scenarios; a user's scenario would be ignored
    out = tmp_path / "out"
    assert run(["--scenario", str(tmp_path / "absent.scn"), "--out", str(out), "reproduce"]) == 2
    captured = capsys.readouterr()
    assert captured.err == (
        "error[usage]: reproduce does not read --scenario: it runs the bundled scenarios\n"
    )
    assert captured.out == ""
    assert not out.exists()


@pytest.mark.parametrize("command", ["demand", "respond", "revenue", "optimize", "equilibrium"])
def test_seed_is_refused_where_unread(tmp_path, capsys, command):
    out = tmp_path / "out"
    assert run(["--scenario", CONVEX, "--seed", "5", "--out", str(out), command]) == 2
    captured = capsys.readouterr()
    assert captured.err == f"error[usage]: {command} does not read --seed\n"
    assert captured.out == ""
    assert not out.exists()


def test_missing_analysis_request(tmp_path, capsys):
    out = str(tmp_path / "out")
    assert run(["--scenario", CONVEX, "--out", out, "optimize"]) == 2
    assert "has no analysis.optimizer request" in capsys.readouterr().err


def test_schema_violation_exits_3(tmp_path, capsys):
    def bad_acceptance(doc):
        doc["consumers"][0]["acceptance"] = [1.2]

    path = mutated_scenario(tmp_path, "paper_convex", bad_acceptance)
    assert run(["--scenario", path, "--out", str(tmp_path / "out"), "respond"]) == 3
    err = capsys.readouterr().err
    assert err.startswith("error[schema]:")
    assert "outside [0, 1]" in err


@pytest.mark.parametrize("command", ["revenue", "simulate"])
def test_non_finite_number_exits_3(tmp_path, capsys, command):
    def infinite_budget(doc):
        doc["consumers"][0]["budget"] = float("inf")  # written as the token Infinity

    path = mutated_scenario(tmp_path, "paper_mixed", infinite_budget)
    with open(path, encoding="utf-8") as handle:
        assert "Infinity" in handle.read()
    out = tmp_path / "out"
    assert run(["--scenario", path, "--out", str(out), command]) == 3
    err = capsys.readouterr().err
    assert err.startswith("error[schema]: consumers[0].budget: expected a finite number")
    assert not out.exists()


@pytest.mark.parametrize("command", ["revenue", "simulate"])
def test_non_finite_output_exits_5(tmp_path, capsys, command):
    # a finite budget passes the loader, but demand at the posted prices
    # overflows to inf
    def huge_budget(doc):
        doc["consumers"][0]["budget"] = 1e308

    path = mutated_scenario(tmp_path, "paper_mixed", huge_budget)
    out = tmp_path / "out"
    assert run(["--scenario", path, "--out", str(out), command]) == 5
    captured = capsys.readouterr()
    assert captured.err.startswith("error[numerical]:")
    assert "non-finite" in captured.err
    assert captured.out == ""
    assert not out.exists()


def test_tiny_response_price_exits_5(tmp_path, capsys):
    # p * p underflows to 0 below about 1e-162, so the slope has no value
    def tiny_start(doc):
        doc["analysis"]["response"]["price_start"] = 1e-200

    path = mutated_scenario(tmp_path, "paper_convex", tiny_start)
    out = tmp_path / "out"
    assert run(["--scenario", path, "--out", str(out), "respond"]) == 5
    err = capsys.readouterr().err
    assert err.startswith("error[numerical]: response slope at price 1e-200 is not finite")
    assert not out.exists()


def test_overflowing_supply_fit_exits_5(tmp_path, capsys):
    # the least-squares deviation of a 1e200 quantity cannot be squared;
    # supply_fit.csv fits with both methods whatever the request's method
    def huge_quantity(doc):
        doc["analysis"]["equilibrium"]["supply1"][2][1] = 1e200

    path = mutated_scenario(tmp_path, "paper_convex", huge_quantity)
    out = tmp_path / "out"
    assert run(["--scenario", path, "--out", str(out), "equilibrium"]) == 5
    err = capsys.readouterr().err
    assert err.startswith("error[numerical]: analysis.equilibrium.supply1: least-squares fit overflows")
    assert not out.exists()


def test_starved_consumer_exits_4(tmp_path, capsys):
    # cross minimum alone exceeds the budget, so demand is 0 on the whole
    # grid and the hazard rate is undefined
    def starve(doc):
        doc["consumers"] = [
            {
                "budget": 50,
                "motives1": [0.9],
                "motives2": [0.5],
                "min_qty1": 1,
                "min_qty2": 600,
                "max_qty1": 7000,
                "max_qty2": 7000,
                "attention_span": 1,
                "acceptance": [0.5],
            }
        ]
        doc["analysis"] = {
            "response": {
                "consumer": 0,
                "commodity": 1,
                "price_start": 0.05,
                "price_stop": 50,
                "points": 10,
            }
        }

    path = mutated_scenario(tmp_path, "paper_convex", starve)
    assert run(["--scenario", path, "--out", str(tmp_path / "out"), "respond"]) == 4
    assert capsys.readouterr().err.startswith("error[infeasible]:")


def test_failed_bracket_exits_5(tmp_path, capsys):
    def shift_bracket(doc):
        doc["analysis"]["equilibrium"]["bracket"] = [3000, 4000]

    path = mutated_scenario(tmp_path, "paper_convex", shift_bracket)
    assert run(["--scenario", path, "--out", str(tmp_path / "out"), "equilibrium"]) == 5
    assert "error[bracket]: no sign change" in capsys.readouterr().err


@pytest.mark.parametrize(
    "pairs,message",
    [
        ([[0, 0], [0, 0]], "two-point fit needs distinct quantities, got 0.0 twice"),
        ([[35, 200], [70, 200]], "two-point fit needs distinct quantities, got 200.0 twice"),
        ([[35, 200], [35, 400]], "supply slope must be positive: 0.0"),
        ([[-5, 200], [70, 400]], "price must be positive: -79.625"),
    ],
    ids=["zero_pairs", "same_quantity", "same_price", "negative_price"],
)
def test_supply_errors_name_their_json_path(tmp_path, capsys, pairs, message):
    path = mutated_scenario(tmp_path, "paper_convex", equilibrium_edit("supply1", pairs))
    assert run(["--scenario", path, "--out", str(tmp_path / "out"), "equilibrium"]) == 3
    err = capsys.readouterr().err
    assert err == f"error[invalid-parameter]: analysis.equilibrium.supply1: {message}\n"


@pytest.mark.parametrize(
    "edit,command,code",
    [
        (equilibrium_edit("bracket", [3000, 4000]), "equilibrium", 5),
        (equilibrium_edit("supply1", [[-5, 200], [70, 400]]), "equilibrium", 3),
        (None, "reproduce", 2),
    ],
    ids=["bracket", "negative_price", "battery_file_exists"],
)
def test_failing_command_writes_nothing(tmp_path, capsys, edit, command, code):
    out = tmp_path / "out"
    argv = ["--out", str(out), command]
    if edit is None:  # one battery file already there, no --overwrite
        out.mkdir()
        (out / "domain_ranking.csv").write_text("rank\n", encoding="utf-8")
    else:
        argv = ["--scenario", mutated_scenario(tmp_path, "paper_convex", edit)] + argv
    before = snapshot(out)
    assert run(argv) == code
    assert "wrote" not in capsys.readouterr().out
    assert snapshot(out) == before


@pytest.mark.parametrize(
    "case", ["out_is_file", "out_under_file", "scenario_is_dir", "scenario_not_utf8"]
)
def test_os_and_encoding_errors_exit_cleanly(tmp_path, capsys, case):
    regular = tmp_path / "regular"
    regular.write_text("x", encoding="utf-8")
    scenario, out = CONVEX, tmp_path / "out"
    if case == "out_is_file":
        out = regular
    elif case == "out_under_file":
        out = regular / "out"
    elif case == "scenario_is_dir":
        scenario = str(tmp_path)
    else:
        scenario = str(tmp_path / "bad.scn")
        (tmp_path / "bad.scn").write_bytes(b"\xff\xfe{}")
    code = run(["--scenario", scenario, "--out", str(out), "respond"])
    captured = capsys.readouterr()
    if case == "scenario_not_utf8":
        assert code == 3
        assert captured.err.startswith(f"error[schema]: {scenario}: not valid UTF-8:")
    else:
        assert code == 2
        assert captured.err.startswith("error[usage]: [Errno")
    assert captured.out == ""
    assert regular.read_text(encoding="utf-8") == "x"


def test_seed_flag_must_fit_64_bits(tmp_path, capsys):
    for bad in ("-3", str(2**64)):
        assert run(["--scenario", CONVEX, "--seed", bad, "--out", str(tmp_path), "simulate"]) == 2
        assert "--seed must fit in 64 bits" in capsys.readouterr().err


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "slabpricing.cli", "--help"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert "reproduce" in proc.stdout


def test_main_propagates_the_exit_code(monkeypatch):
    monkeypatch.setattr(sys, "argv", ["slabprice"])
    with pytest.raises(SystemExit) as exit_info:
        main()
    assert exit_info.value.code == 2


# ---------------------------------------------------------------------------
# file contracts


def test_demand_curve_files(tmp_path):
    out = tmp_path / "out"
    assert run(["--scenario", CONVEX, "--out", str(out), "demand"]) == 0
    for commodity, tag in ((1, "mu"), (2, "phi")):
        rows = read_rows(out / f"demand_x{commodity}.csv")
        assert len(rows) == 51  # header + one row per grid price
        assert len(rows[0]) == 19  # price + 9 constrained + 9 unconstrained
        assert rows[0][0] == "price"
        assert rows[0][1] == f"{tag}_0.1_constrained"
        assert rows[0][10] == f"{tag}_0.1_unconstrained"
        assert rows[1][0] == "1"
        assert rows[50][0] == "50"


@pytest.mark.parametrize("commodity", [1, 2])
def test_demand_curves_match_the_convex_pair_formula(tmp_path, commodity):
    # every data cell is the library's convex-pair demand for the consumer
    # viewed on that commodity, the other commodity at its first-slab price
    out = tmp_path / "out"
    assert run(["--scenario", CONVEX, "--out", str(out), "demand"]) == 0
    scenario = parse_scenario(CONVEX)
    baseline = scenario.curves.baseline_min_qty
    views = [consumer.oriented(commodity) for consumer in scenario.consumers]
    variants = views + [
        dataclasses.replace(view, min_qty1=baseline, min_qty2=baseline) for view in views
    ]
    cross = scenario.offer2 if commodity == 1 else scenario.offer1
    cross_first_price = cross.slabs[0].unit_price
    rows = read_rows(out / f"demand_x{commodity}.csv")[1:]
    assert len(variants) == 18
    assert [row[0] for row in rows] == [format_number(p) for p in scenario.curves.grid()]
    for row, price in zip(rows, scenario.curves.grid()):
        expected = [
            format_number(demand_convex_pair(view, price, cross_first_price).x1)
            for view in variants
        ]
        assert row[1:] == expected


def test_equilibrium_files(tmp_path):
    out = tmp_path / "out"
    assert run(["--scenario", CONVEX, "--out", str(out), "equilibrium"]) == 0

    fits = read_rows(out / "supply_fit.csv")
    assert fits[0] == ["commodity", "fit_method", "slope", "intercept"]
    assert fits[1] == ["1", "two_point", "0.175", "0"]
    assert fits[2] == ["1", "least_squares", "0.175", "0"]
    assert fits[3] == ["2", "two_point", "0.1904", "0.82"]
    assert fits[4] == ["2", "least_squares", "0.191425", "0.5466666667"]

    points = read_rows(out / "equilibrium.csv")
    assert len(points) == 5
    assert points[1][:2] == ["1", "constrained"]
    assert points[1][5] == "122.447025"
    assert points[1][6] == "21.42822937"
    assert points[2][:2] == ["1", "unconstrained"]
    assert points[2][5] == "53.69775486"
    assert points[2][6] == "9.397107101"
    # minimum requirements push the clearing price up on both commodities
    assert float(points[1][6]) > float(points[2][6])
    assert float(points[3][6]) > float(points[4][6])


def test_response_table_shape(tmp_path):
    out = tmp_path / "out"
    assert run(["--scenario", CONVEX, "--out", str(out), "respond"]) == 0
    rows = read_rows(out / "response.csv")
    assert rows[0] == [
        "price", "response", "slope", "hazard", "elasticity",
        "wtp_ref_0.01", "wtp_ref_0.001",
    ]
    assert len(rows) == 101  # header + 100 grid points
    prices = [float(r[0]) for r in rows[1:]]
    assert prices[0] == pytest.approx(0.05)
    assert prices[-1] == pytest.approx(50.0)
    responses = [float(r[1]) for r in rows[1:]]
    assert all(a > b for a, b in zip(responses, responses[1:]))


def test_revenue_report_file(tmp_path):
    out = tmp_path / "out"
    assert run(["--scenario", CONVEX, "--out", str(out), "revenue"]) == 0
    rows = read_rows(out / "revenue.csv")
    assert rows[0] == [
        "scenario", "slab", "reach_prob", "acceptance_prob", "demand", "price",
        "contribution",
    ]
    assert rows[1] == ["paper_convex", "1", "1", "0.5", "2848.571429", "0.175", "249.25"]
    assert rows[2] == ["paper_convex", "total", "", "", "", "", "249.25"]


def test_simulate_files_and_seed_override(tmp_path):
    def shrink(doc):
        doc["analysis"]["simulation"]["trials"] = 20000

    path = mutated_scenario(tmp_path, "paper_mixed", shrink)
    out = tmp_path / "out"
    assert run(["--scenario", path, "--out", str(out), "--seed", "11", "simulate"]) == 0

    mc = read_rows(out / "mc.csv")
    assert mc[0] == [
        "scenario", "trials", "seed", "closed_form", "mc_mean", "mc_stderr",
        "gap", "within_3se",
    ]
    assert mc[1][1] == "20000"
    assert mc[1][2] == "11"
    assert mc[1][3] == "370"

    slabs = read_rows(out / "mc_slabs.csv")
    assert slabs[0] == ["slab", "purchases", "frequency", "purchase_probability"]
    assert [r[0] for r in slabs[1:]] == ["1", "2"]
    assert [r[3] for r in slabs[1:]] == ["0.5", "0.25"]
    assert sum(int(r[1]) for r in slabs[1:]) <= 20000


def test_slab_study_file(tmp_path):
    out = tmp_path / "out"
    study = str(bundled_scenario_path("slab_study"))
    assert run(["--scenario", study, "--out", str(out), "optimize"]) == 0
    rows = read_rows(out / "slab_study.csv")
    assert rows[0] == ["slab_count", "first_slab_price", "expected_revenue", "overall_best"]
    assert rows[1] == ["1", "12", "300.5", "0"]
    assert rows[2] == ["2", "12", "449.25", "1"]
    assert rows[3] == ["3", "12", "449.25", "0"]
    assert rows[4] == ["4", "12", "449.25", "0"]


def test_reproduce_emits_the_battery(tmp_path):
    out = tmp_path / "out"
    assert run(["--out", str(out), "reproduce"]) == 0
    names = sorted(p.name for p in out.iterdir())
    assert names == [
        "demand_x1.csv",
        "demand_x2.csv",
        "domain_ranking.csv",
        "equilibrium.csv",
        "mc_validation.csv",
        "response.csv",
        "revenue_reports.csv",
        "slab_study.csv",
        "supply_fit.csv",
    ]

    mc = read_rows(out / "mc_validation.csv")
    assert [r[0] for r in mc[1:]] == [
        "paper_convex", "paper_mixed", "paper_nonconvex", "paper_beans", "slab_study",
    ]
    assert all(r[7] == "1" for r in mc[1:])

    ranking = read_rows(out / "domain_ranking.csv")
    assert [r[0] for r in ranking[1:]] == ["1", "2", "3"]
    totals = [float(r[3]) for r in ranking[1:]]
    assert totals == sorted(totals, reverse=True)
    assert {r[2] for r in ranking[1:]} == {"convex", "mixed", "non_convex"}

    reports = read_rows(out / "revenue_reports.csv")
    totals_by_name = {r[0]: r[6] for r in reports[1:] if r[1] == "total"}
    assert totals_by_name == {
        "paper_convex": "249.25",
        "paper_mixed": "370",
        "paper_nonconvex": "365.296875",
        "paper_beans": "300.147825",
        "slab_study": "290.5",
    }


# ---------------------------------------------------------------------------
# commodity symmetry


def mirror_commodities(doc):
    """The same scenario with the two commodities trading places."""
    doc["offers"].reverse()
    for consumer in doc["consumers"]:
        for a, b in (("motives1", "motives2"), ("min_qty1", "min_qty2"), ("max_qty1", "max_qty2")):
            consumer[a], consumer[b] = consumer[b], consumer[a]
    analysis = doc.get("analysis", {})
    for request in analysis.values():
        if "commodity" in request:
            request["commodity"] = 3 - request["commodity"]
    if "equilibrium" in analysis:
        eq = analysis["equilibrium"]
        eq["supply1"], eq["supply2"] = eq["supply2"], eq["supply1"]


def listing(directory):
    return sorted(p.name for p in directory.iterdir()) if directory.exists() else []


def by_commodity(rows):
    return {c: [r[1:] for r in rows[1:] if r[0] == c] for c in ("1", "2")}


def without_tags(header):
    """Demand-curve column names without their mu_/phi_ commodity tag."""
    return [h.split("_", 1)[1] for h in header[1:]]


@pytest.mark.parametrize("command", ["demand", "respond", "revenue", "optimize", "equilibrium", "simulate"])
@pytest.mark.parametrize("name", BUNDLED_SCENARIOS)
def test_mirrored_commodities_give_mirrored_output(tmp_path, name, command):
    """Every single command treats the two commodities alike: swapping them
    in the scenario swaps them in the output and changes nothing else."""
    original = str(bundled_scenario_path(name))
    mirrored = mutated_scenario(tmp_path, name, mirror_commodities)
    out, out_m = tmp_path / "original", tmp_path / "mirrored"
    code = run(["--scenario", original, "--out", str(out), command])
    assert run(["--scenario", mirrored, "--out", str(out_m), command]) == code
    files = listing(out)
    assert listing(out_m) == files
    if code != 0:
        return
    if command == "demand":
        for mine, theirs in (("demand_x1.csv", "demand_x2.csv"), ("demand_x2.csv", "demand_x1.csv")):
            rows, rows_m = read_rows(out / mine), read_rows(out_m / theirs)
            assert rows[1:] == rows_m[1:]
            assert without_tags(rows[0]) == without_tags(rows_m[0])
    elif command == "equilibrium":
        for file in files:
            rows, rows_m = read_rows(out / file), read_rows(out_m / file)
            assert rows[0] == rows_m[0]
            blocks, blocks_m = by_commodity(rows), by_commodity(rows_m)
            assert blocks["1"] == blocks_m["2"]
            assert blocks["2"] == blocks_m["1"]
    else:
        for file in files:
            assert (out / file).read_bytes() == (out_m / file).read_bytes()


# ---------------------------------------------------------------------------
# formatting


def test_format_number():
    assert format_number(-0.0) == "0"
    assert format_number(0.175) == "0.175"
    assert format_number(1 / 3) == "0.3333333333"
    assert format_number(122.44702498077844) == "122.447025"
    assert format_number(2848.571428571429) == "2848.571429"
    assert format_number(1000000.0) == "1000000"
