"""Tests of the benchmark itself.  From the repository root:

    PYTHONPATH=src python -m pytest bench -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src"), str(ROOT)]

import orbikit  # noqa: E402
import oracles  # noqa: E402
import run  # noqa: E402
import specs  # noqa: E402
import workloads  # noqa: E402
from recorder import Recorder  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def test_same_seed_gives_same_inputs():
    for make in (specs.kummer_rounds, specs.pquot_rounds, specs.files_corpus):
        assert make(11) == make(11)
    assert specs.pquot_rounds(11) != specs.pquot_rounds(12)
    assert specs.files_corpus(11) != specs.files_corpus(12)


def test_generated_specs_are_accepted_by_orbikit():
    for spec in specs.pquot_rounds(5)[0] + specs.files_corpus(5)["specs"]:
        orbikit.build_projective_quotient(orbikit.ProjectiveQuotientSpec(spec.n, spec.orders, spec.weights))


def test_screen_rejects_pseudo_reflections():
    # Weights (0,1,3,7) mod 1000: the element 500 fixes the hyperplane x0 = 0.
    assert not oracles.quotient_is_valid(3, (1000,), ((0, 1, 3, 7),))
    assert oracles.quotient_is_valid(2, (3,), ((0, 1, 2),))


def test_oracles_agree_with_frozen_diamonds():
    from tests.support import K3_DIAMOND, KUMMER3_DIAMOND, P2_MU3_DIAMOND

    assert oracles.kummer_diamond(2) == dict(K3_DIAMOND.items())
    assert oracles.kummer_diamond(3) == dict(KUMMER3_DIAMOND.items())
    p2_mu3 = oracles.QuotientOracle(2, (3,), ((0, 1, 2),))
    assert p2_mu3.entries == dict(P2_MU3_DIAMOND.items())
    assert p2_mu3.gorenstein


def test_oracle_identities():
    for n in range(2, 6):
        entries = oracles.kummer_diamond(n)
        assert sum(entries.values()) == oracles.kummer_stringy_euler(n) == 2 ** (2 * n - 1) + 4**n
        assert oracles.symmetric(entries, n)
    spec = specs.P5_Z20_SQ
    q = oracles.QuotientOracle(spec.n, spec.orders, spec.weights)
    assert (q.sectors, q.distinct_sectors) == (2067, 1609)  # ROADMAP baseline row
    assert sum(q.entries.values()) == 400 * 6
    for spec in specs.GORENSTEIN:
        assert oracles.QuotientOracle(spec.n, spec.orders, spec.weights).gorenstein


def test_metric_names_match_benchmark_json(tmp_path):
    """Both kinds of run print exactly the metrics BENCHMARK.json lists."""
    rec = Recorder(traced=True)
    ok = run.import_orbikit()
    rec.start_round()
    workloads.diamond_case(rec, ok, "kummer3", workloads.kummer_build(ok, 3), workloads.expect_kummer(3))
    workloads.cli_case(rec, ok, "cli", ["diamond", "kummer2"], 0, replay=workloads.replay_diamond(ok, "kummer2", "table"))
    workloads.subprocess_calls(rec, [("subprocess", ["catalog"], lambda out: "kummer2" in out)], tmp_path)
    assert not rec.failures
    per_layer = run.per_layer(rec)
    assert [(m["name"], m["unit"]) for m in BENCHMARK["per_layer"]] == [(k, v["unit"]) for k, v in per_layer.items()]
    end_to_end = run.end_to_end(rec, 0.01)
    assert [(m["name"], m["unit"]) for m in BENCHMARK["end_to_end"]] == [(k, v["unit"]) for k, v in end_to_end.items()]
    assert all(v["value"] > 0 for v in end_to_end.values())
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(workloads.WORKLOADS)


def test_benchmark_json_states_known_defects_and_cell_budget():
    why = {w["name"]: w["why"] for w in BENCHMARK["workloads"]}
    for name in workloads.KNOWN_DEFECTS:
        assert name in why["files_cli"]
    assert f"{workloads.CELL_BUDGET} cells" in why["pquot_distinct"]


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, *BENCHMARK["command"][1:], "--workload", "files_cli", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


def test_traced_cli_cases_record_their_steps_in_either_order():
    """A traced run runs the traced pass first for even case ids and second
    for odd ones; the replayed steps must be recorded after both."""
    rec = Recorder(traced=True)
    ok = run.import_orbikit()
    for _ in range(2):
        workloads.cli_case(rec, ok, "cli", ["diamond", "kummer2"], 0, replay=workloads.replay_diamond(ok, "kummer2", "table"))
    assert not rec.failures
    replays = {i: s[4] for i, s in enumerate(rec.spans) if s[0] == "replay"}
    assert sorted(replays.values()) == [1, 2]
    for index in replays:
        steps = {s[0] for s in rec.spans if s[3] == index}
        assert steps == {"catalog.load", "inertia.assemble_diamond", "cli.render_table"}
    times = rec.self_times()
    for case in (1, 2):
        main = sum(ns for name, ns, c in times if name == "cli.main" and c == case)
        steps = sum(ns for i, (_, ns, c) in enumerate(times) if rec.spans[i][3] in replays and c == case)
        assert 0 < steps < main



def test_known_defects_are_probed_apart_and_other_hostile_inputs_pass(tmp_path):
    """On this code the known defects show and are counted apart, not as
    cases; every other hostile input is a case that passes."""
    rec = Recorder(traced=False)
    hostile = workloads.hostile_files(tmp_path)
    workloads.run_hostile(rec, run.import_orbikit(), hostile)
    assert not rec.failures and not rec.fixed_defects
    assert sorted(case for case, _, _ in rec.known_defects) == sorted(f"hostile.{n}" for n in workloads.KNOWN_DEFECTS)
    assert rec.attempted == len(hostile) - len(workloads.KNOWN_DEFECTS)
