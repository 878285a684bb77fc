"""Property test: every edited scenario ends in finite output or a
classified exit code, never in a traceback.

Numeric leaves of the bundled scenarios are replaced with extreme values
(0, negatives, 1e+-200, 1e308, huge integers) and each of the six scenario
commands runs in-process through ``cli.run``. Work stays small: trials are
capped at 2000 before editing, and edits whose grids or trial counts would
exceed 2000 are skipped (the optimizer is bounded by the scenario cap).
"""

import contextlib
import csv
import io
import json
import math
import tempfile
from pathlib import Path

from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from slabpricing import BUNDLED_SCENARIOS, SchemaError, bundled_scenario_path, scenario_from_dict
from slabpricing.cli import run

COMMANDS = ("demand", "respond", "revenue", "optimize", "equilibrium", "simulate")
CLASSIFIED_EXITS = {0, 2, 3, 4, 5}
SMALL = 2000
VALUES = (0, -1, -0.5, 1e-200, -1e-200, 1e200, -1e200, 1e308, -1e308, 10**20, 2**64, 10**400)


def base_document(name):
    with open(bundled_scenario_path(name), encoding="utf-8") as handle:
        doc = json.load(handle)
    simulation = doc.get("analysis", {}).get("simulation")
    if simulation is not None:
        simulation["trials"] = min(simulation["trials"], SMALL)
    return doc


def numeric_leaves(node, path=()):
    """Paths (key and index tuples) of every number in a JSON document."""
    if isinstance(node, dict):
        items = node.items()
    elif isinstance(node, list):
        items = enumerate(node)
    else:
        return [path] if isinstance(node, (int, float)) and not isinstance(node, bool) else []
    return [leaf for key, child in items for leaf in numeric_leaves(child, path + (key,))]


LEAVES = {name: numeric_leaves(base_document(name)) for name in BUNDLED_SCENARIOS}


@st.composite
def edited_scenarios(draw):
    name = draw(st.sampled_from(BUNDLED_SCENARIOS))
    edit = st.tuples(st.sampled_from(LEAVES[name]), st.sampled_from(VALUES))
    return name, tuple(draw(st.lists(edit, min_size=1, max_size=3)))


def apply(name, edits):
    doc = base_document(name)
    for path, value in edits:
        node = doc
        for key in path[:-1]:
            node = node[key]
        node[path[-1]] = value
    return doc


def small_enough(doc):
    """False when the edited scenario parses but asks for more than SMALL
    grid points or trials."""
    try:
        scenario = scenario_from_dict(doc)
    except SchemaError:
        return True
    sizes = []
    if scenario.curves is not None:
        sizes.append(scenario.curves.n_points())
    if scenario.response is not None:
        sizes.append(scenario.response.points)
    if scenario.simulation is not None:
        sizes.append(scenario.simulation.trials)
    return all(size <= SMALL for size in sizes)


def non_finite_cells(directory):
    bad = []
    for path in sorted(directory.rglob("*.csv")):
        with open(path, encoding="utf-8", newline="") as handle:
            for row in csv.reader(handle):
                for cell in row:
                    try:
                        value = float(cell)
                    except ValueError:
                        continue
                    if not math.isfinite(value):
                        bad.append(f"{path.name}: {cell}")
    return bad


@settings(max_examples=60, deadline=None)
@given(case=edited_scenarios())
@example(case=("paper_convex", ((("analysis", "response", "price_start"), 1e-200),)))
@example(case=("paper_convex", ((("analysis", "equilibrium", "supply1", 2, 1), 1e200),)))
@example(case=("slab_study", ((("analysis", "optimizer", "max_slabs"), 10**6),)))
def test_edited_scenarios_exit_classified_with_finite_output(case):
    name, edits = case
    doc = apply(name, edits)
    assume(small_enough(doc))
    with tempfile.TemporaryDirectory() as tmp:
        scenario = Path(tmp) / "edited.scn"
        scenario.write_text(json.dumps(doc), encoding="utf-8")
        for command in COMMANDS:
            out = Path(tmp) / command
            stderr = io.StringIO()
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(stderr):
                code = run(["--scenario", str(scenario), "--out", str(out), command])
            assert code in CLASSIFIED_EXITS, (command, code, stderr.getvalue())
            if code == 0:
                assert non_finite_cells(out) == [], command
            else:
                assert stderr.getvalue().startswith("error["), (command, stderr.getvalue())
