"""The GRE command-line interface."""

import pytest

from repro.cli import build_parser, main
from repro.core.report import ascii_chart


def _run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_datasets_command(capsys):
    code, out = _run(capsys, "datasets")
    assert code == 0
    for name in ("covid", "osm", "genome", "wiki_dup"):
        assert name in out


def test_hardness_command(capsys):
    code, out = _run(capsys, "hardness", "planet", "--n", "3000")
    assert code == 0
    assert "global hardness" in out and "local  hardness" in out
    assert "CDF deciles" in out


def test_run_command(capsys):
    code, out = _run(capsys, "run", "--index", "ALEX", "--dataset", "covid",
                     "--n", "2000", "--ops", "1000")
    assert code == 0
    assert "throughput" in out and "Mops" in out
    assert "memory" in out


def test_run_command_json_and_out(tmp_path, capsys):
    import json

    from repro.core.results import SCHEMA_VERSION, load_jsonl

    out_path = str(tmp_path / "runs.jsonl")
    code, out = _run(capsys, "run", "--index", "B+tree", "--dataset", "covid",
                     "--n", "1000", "--ops", "500", "--json", "--out", out_path)
    assert code == 0
    record = json.loads(out)
    assert record["index"] == "B+tree"
    assert record["schema_version"] == SCHEMA_VERSION
    saved = load_jsonl(out_path)
    assert len(saved) == 1
    assert saved[0]["throughput_mops"] == record["throughput_mops"]
    # --out appends, so a second run grows the artifact file.
    code, _ = _run(capsys, "run", "--index", "B+tree", "--dataset", "covid",
                   "--n", "1000", "--ops", "500", "--out", out_path)
    assert code == 0
    assert len(load_jsonl(out_path)) == 2


def test_run_command_scan_workload(capsys):
    code, out = _run(capsys, "run", "--index", "B+tree", "--dataset", "stack",
                     "--workload", "scan:50", "--n", "2000", "--ops", "1000")
    assert code == 0


def test_run_unknown_index_errors():
    with pytest.raises(SystemExit):
        main(["run", "--index", "SPLAY", "--n", "100", "--ops", "10"])


def test_unknown_workload_errors():
    with pytest.raises(SystemExit):
        main(["run", "--index", "ALEX", "--workload", "chaos",
              "--n", "100", "--ops", "10"])


def test_compare_command(capsys):
    code, out = _run(capsys, "compare", "--dataset", "covid",
                     "--workload", "read-only", "--n", "2000", "--ops", "800")
    assert code == 0
    for name in ("ALEX", "LIPP", "ART", "B+tree"):
        assert name in out


def test_heatmap_command_subset(capsys):
    code, out = _run(capsys, "heatmap", "--datasets", "covid,stack",
                     "--n", "1500", "--ops", "800")
    assert code == 0
    assert "win fraction" in out
    assert "read-only" in out


def test_sweep_command_cache_and_json(capsys, tmp_path):
    import json

    argv = ("sweep", "--datasets", "covid,stack",
            "--workloads", "read-only,balanced", "--indexes", "ALEX,B+tree",
            "--n", "1200", "--ops", "500", "--jobs", "1",
            "--cache-dir", str(tmp_path / "cache"))
    code, out = _run(capsys, *argv)
    assert code == 0
    assert "8 cells" in out and "0 cache hits" in out

    bench = tmp_path / "bench.json"
    results = tmp_path / "cells.jsonl"
    code, out = _run(capsys, *argv, "--json",
                     "--bench", str(bench), "--out", str(results))
    assert code == 0
    report = json.loads(out)
    assert report["cache_hits"] == 8 and report["executed"] == 0
    assert len(report["cells"]) == 8
    assert all(c["fingerprint"] for c in report["cells"])
    stats = json.loads(bench.read_text())
    assert stats["cache_hit_rate"] == 1.0

    from repro.core.results import load_jsonl

    records = load_jsonl(str(results))
    assert len(records) == 8
    assert {r["index"] for r in records} == {"ALEX", "B+tree"}


def test_sweep_command_rejects_unknowns(capsys):
    with pytest.raises(SystemExit):
        main(["sweep", "--datasets", "not-a-dataset", "--no-cache"])
    with pytest.raises(SystemExit):
        main(["sweep", "--datasets", "covid", "--workloads", "bogus",
              "--no-cache"])
    with pytest.raises(SystemExit):
        main(["sweep", "--datasets", "covid", "--indexes", "NopeIndex",
              "--no-cache"])


def test_heatmap_command_with_jobs_flag(capsys, tmp_path):
    code, out = _run(capsys, "heatmap", "--datasets", "covid",
                     "--n", "1200", "--ops", "500", "--jobs", "1",
                     "--cache-dir", str(tmp_path))
    assert code == 0
    assert "win fraction" in out
    code, out = _run(capsys, "heatmap", "--datasets", "covid",
                     "--n", "1200", "--ops", "500", "--jobs", "1",
                     "--cache-dir", str(tmp_path))
    assert "cache hits" in out  # second run reuses every cell


def test_scalability_command(capsys):
    code, out = _run(capsys, "scalability", "--dataset", "covid",
                     "--workload", "balanced", "--threads", "2,8",
                     "--n", "1500", "--ops", "800")
    assert code == 0
    assert "LIPP+" in out and "ART-OLC" in out


def test_memory_command(capsys):
    code, out = _run(capsys, "memory", "--dataset", "covid",
                     "--n", "2000", "--ops", "500")
    assert code == 0
    assert "Bytes/key" in out


def test_ycsb_workload_via_cli(capsys):
    code, out = _run(capsys, "run", "--index", "LIPP", "--dataset", "covid",
                     "--workload", "ycsb-a", "--n", "2000", "--ops", "1000")
    assert code == 0


def test_parser_requires_command():
    with pytest.raises(SystemExit):
        build_parser().parse_args([])


def test_ascii_chart_renders():
    chart = ascii_chart({"A": [1, 2, 3], "B": [3, 2, 1]}, [10, 20, 30],
                        height=5, title="demo")
    assert "demo" in chart
    assert "A=A" in chart and "B=B" in chart
    assert "10" in chart and "30" in chart


def test_ascii_chart_empty():
    assert ascii_chart({}, []) == "(no data)"


def test_diagnose_command(capsys):
    code, out = _run(capsys, "diagnose", "--index", "LIPP", "--dataset", "covid",
                     "--n", "1500", "--ops", "800")
    assert code == 0
    assert "Diagnosis: LIPP" in out


def test_run_command_trace_and_metrics_artifacts(tmp_path, capsys):
    import json

    from repro.core.results import load_jsonl
    from repro.core.telemetry import (
        validate_chrome_trace,
        validate_event_records,
        validate_metric_records,
    )

    trace = tmp_path / "trace.json"
    events = tmp_path / "events.jsonl"
    metrics = tmp_path / "metrics.jsonl"
    code, out = _run(capsys, "run", "--index", "ALEX", "--dataset", "covid",
                     "--workload", "write-heavy", "--n", "2000", "--ops",
                     "1500", "--trace", str(trace), "--trace-log", str(events),
                     "--metrics", str(metrics), "--window", "128")
    assert code == 0
    assert "Perfetto" in out and "SMO storm" in out
    assert validate_chrome_trace(json.loads(trace.read_text())) > 1500
    assert validate_event_records(load_jsonl(str(events))) > 1500
    metric_records = load_jsonl(str(metrics))
    assert validate_metric_records(metric_records) == len(metric_records) > 0
    assert all(r["tags"] == {"artifact": "metrics"} for r in metric_records)


def test_profile_command(capsys):
    code, out = _run(capsys, "profile", "--index", "LIPP", "--dataset", "covid",
                     "--workload", "write-heavy", "--n", "1500", "--ops", "1000",
                     "--top", "8")
    assert code == 0
    assert "Cost profile" in out and "Per-phase totals" in out
    # The flame-table reconciles with the meter exactly.
    assert "drift vs CostMeter.time_by_phase(): 0 ns" in out


def test_diagnose_command_cites_recorded_run(capsys):
    code, out = _run(capsys, "diagnose", "--index", "ALEX", "--dataset", "osm",
                     "--workload", "write-only", "--n", "3000", "--ops", "3000")
    assert code == 0
    assert "smo_storms" in out
    assert "smo_phase_share" in out


def test_compare_runs_command(tmp_path, capsys):
    import json

    base = tmp_path / "base.jsonl"
    cur = tmp_path / "cur.jsonl"
    base.write_text(json.dumps({"index": "X", "workload": "w",
                                "throughput_mops": 10.0}) + "\n")
    cur.write_text(json.dumps({"index": "X", "workload": "w",
                               "throughput_mops": 5.0}) + "\n")
    code, out = _run(capsys, "compare-runs", str(base), str(cur))
    assert code == 1
    assert "throughput_mops" in out
    cur.write_text(json.dumps({"index": "X", "workload": "w",
                               "throughput_mops": 11.0}) + "\n")
    code, out = _run(capsys, "compare-runs", str(base), str(cur))
    assert code == 0
    assert "no regressions" in out


def test_fuzz_command_single_index(capsys):
    code, out = _run(capsys, "fuzz", "--index", "B+tree", "--budget", "400",
                     "--out", "")
    assert code == 0
    assert "B+tree" in out and "ok (400 ops)" in out
    assert "0 failure(s)" in out


def test_fuzz_command_rejects_read_only_index():
    with pytest.raises(SystemExit):
        main(["fuzz", "--index", "RMI", "--budget", "100"])


def test_fuzz_command_replays_corpus(capsys):
    import os

    corpus = os.path.join(os.path.dirname(__file__), "corpus")
    code, out = _run(capsys, "fuzz", "--replay", corpus)
    assert code == 0
    assert "0 failing" in out


def test_fuzz_command_replay_single_file(tmp_path, capsys):
    from repro.core.opstream import generate_stream
    from repro.core.registry import REGISTRY

    stream = generate_stream(REGISTRY.get("ART"), seed=1, n_ops=60, n_bulk=16)
    path = str(tmp_path / "art.jsonl")
    stream.save(path)
    code, out = _run(capsys, "fuzz", "--replay", path)
    assert code == 0
    assert "replayed 1 stream(s)" in out


def test_fuzz_command_replay_missing_path_is_a_clear_error():
    with pytest.raises(SystemExit, match="does not exist"):
        main(["fuzz", "--replay", "/no/such/stream.jsonl"])


def test_migrate_command_smoke(capsys):
    code, out = _run(capsys, "migrate", "btree", "alex", "--dataset", "covid",
                     "--n", "800", "--ops", "600", "--workload", "churn",
                     "--min-verified", "1.0")
    assert code == 0
    assert "migrated after op" in out
    assert "0 rejected, 0 stalled" in out


def test_migrate_command_json_and_bench(tmp_path, capsys):
    import json

    bench = str(tmp_path / "BENCH_migration.json")
    code, out = _run(capsys, "migrate", "btree", "alex", "--dataset", "covid",
                     "--n", "600", "--ops", "400", "--workload", "churn:0.3",
                     "--json", "--bench", bench)
    assert code == 0
    with open(bench) as f:
        d = json.load(f)
    assert d["ok"] is True and d["completed"] is True
    assert d["src"] == "B+tree" and d["dst"] == "ALEX"
    assert d["rejected_ops"] == 0 and d["cutover_stall_ops"] == 0
    assert d["verified_fraction"] == 1.0
    assert d["backfill_keys_per_vsec"] > 0
    assert json.loads(out[out.index("{"):])["ok"] is True


def test_migrate_command_rejects_unknown_and_same_index():
    with pytest.raises(SystemExit, match="unknown index"):
        main(["migrate", "splay", "alex", "--n", "100"])
    with pytest.raises(SystemExit, match="both"):
        main(["migrate", "btree", "B+tree", "--n", "100"])


def test_migrate_command_refuses_non_migratable_destination():
    with pytest.raises(SystemExit, match="cannot be a migration"):
        main(["migrate", "btree", "rmi", "--n", "100"])


def test_list_command_shows_migrate_capability(capsys):
    code, out = _run(capsys, "list")
    assert code == 0
    assert "migrate" in out


# -- observability: run --events, top, and the bench-history gate --------------

def test_run_events_writes_validated_log(tmp_path, capsys):
    from repro.core.events import validate_bus_events
    from repro.core.results import load_jsonl

    path = str(tmp_path / "events.jsonl")
    code, out = _run(capsys, "run", "--index", "ALEX", "--dataset", "covid",
                     "--n", "2000", "--ops", "1000", "--events", path)
    assert code == 0
    assert f"events: {path}" in out and "SLO alert" in out
    records = load_jsonl(path)
    assert validate_bus_events(records) > 0
    kinds = {r["kind"] for r in records}
    assert {"phase", "op_window", "state", "slo_window"} <= kinds


def test_run_window_sets_bus_op_windows(tmp_path, capsys):
    from repro.core.results import load_jsonl

    path = str(tmp_path / "events.jsonl")
    code, _ = _run(capsys, "run", "--index", "ALEX", "--dataset", "covid",
                   "--n", "2000", "--ops", "1000", "--window", "64",
                   "--events", path)
    assert code == 0
    ops = [r["ops"] for r in load_jsonl(path) if r["kind"] == "op_window"]
    assert ops == [64] * 15 + [40]


def test_top_replays_a_saved_event_log(tmp_path, capsys):
    import json

    path = str(tmp_path / "events.jsonl")
    code, _ = _run(capsys, "run", "--index", "B+tree", "--dataset", "covid",
                   "--n", "1500", "--ops", "800", "--events", path)
    assert code == 0
    code, out = _run(capsys, "top", "--events", path, "--once", "--json")
    assert code == 0
    doc = json.loads(out)
    row = doc["instances"]["B+tree"]
    assert row["state"] == "serving"
    assert row["ops"] == 800
    assert row["p99_ns"] is not None


def test_top_live_single_index(capsys):
    import json

    code, out = _run(capsys, "top", "--index", "ALEX", "--dataset", "covid",
                     "--n", "1500", "--ops", "600", "--once", "--json")
    assert code == 0
    doc = json.loads(out)
    assert doc["instances"]["ALEX"]["ops"] == 600
    # Plain --once renders the ASCII table instead.
    code, out = _run(capsys, "top", "--index", "ALEX", "--dataset", "covid",
                     "--n", "1500", "--ops", "600", "--once")
    assert code == 0
    assert "Instance" in out and "ALEX" in out


def test_top_watches_a_live_migration(capsys):
    code, out = _run(capsys, "top", "--migrate", "btree", "alex",
                     "--dataset", "covid", "--n", "2000", "--ops", "1500",
                     "--workload", "churn", "--once")
    assert code == 0
    assert "ALEX@1" in out and "B+tree@0" in out
    assert "serving" in out and "retired" in out


def test_bench_history_gate_passes_then_fails_on_regression(tmp_path, capsys):
    import json

    from repro.core.results import load_jsonl

    hist = str(tmp_path / "history.jsonl")
    argv = ["bench", "--indexes", "ALEX", "--dataset", "covid",
            "--n", "1500", "--lookups", "600", "--out", "",
            "--history", hist]
    # First run seeds the trajectory; --check passes on an empty baseline.
    assert main(argv + ["--check"]) == 0
    out = capsys.readouterr().out
    assert "no regressions" in out and "appended" in out
    # Identical rerun: virtual metrics are deterministic, gate passes.
    assert main(argv + ["--check"]) == 0
    assert "no regressions" in capsys.readouterr().out

    # Doctor the history: claim throughput used to be 2x. The real rerun
    # is now a 50% regression and the gate must trip.
    records = load_jsonl(hist)
    forged = dict(records[0])
    forged["metrics"] = dict(forged["metrics"])
    for key in forged["metrics"]:
        if "mops" in key:
            forged["metrics"][key] *= 2.0
    with open(hist, "a") as f:
        f.write(json.dumps(forged) + "\n")
        f.write(json.dumps(forged) + "\n")
    assert main(argv + ["--check"]) == 1
    captured = capsys.readouterr()
    assert "FAIL" in captured.err and "dropped" in captured.err
    assert "regression(s)" in captured.err


# -- sharded serving tier ------------------------------------------------------

def test_list_command_shows_shard_capability(capsys):
    code, out = _run(capsys, "list")
    assert code == 0
    assert "shard" in out
    rmi_row = next(line for line in out.splitlines()
                   if line.startswith("RMI"))
    alex_row = next(line for line in out.splitlines()
                    if line.startswith("ALEX "))
    assert alex_row.count("x") > rmi_row.count("x")


def test_shard_command_writes_bench_and_gates(tmp_path, capsys):
    import json

    out_path = str(tmp_path / "BENCH_shard.json")
    code, out = _run(capsys, "shard", "--index", "B+tree",
                     "--dataset", "covid", "--n", "5000",
                     "--lookups", "2500", "--ops", "5000",
                     "--shard-counts", "1,2,4",
                     "--min-scaling", "1.5", "--out", out_path)
    assert code == 0
    assert "scaling" in out and "moving-hotspot replay" in out
    with open(out_path) as f:
        doc = json.load(f)
    assert doc["scaling"]["scaling_virtual"] >= 1.5
    assert doc["rebalance"]["converged"] is True
    assert doc["rebalance"]["cutover_stall_ops"] == 0
    assert [lv["shards"] for lv in doc["scaling"]["levels"]] == [1, 2, 4]
    assert "git_rev" in doc and "schema_version" in doc  # provenance


def test_shard_command_history_check(tmp_path, capsys):
    hist = str(tmp_path / "hist.jsonl")
    args = ["shard", "--index", "B+tree", "--dataset", "covid",
            "--n", "4000", "--lookups", "2000", "--ops", "4000",
            "--shard-counts", "1,2", "--out", "", "--history", hist]
    code, _ = _run(capsys, *args)
    assert code == 0
    code, out = _run(capsys, *args, "--check")
    assert code == 0
    assert "no regressions" in out


def test_shard_command_refuses_unshardable_index():
    with pytest.raises(SystemExit, match="does not support sharding"):
        main(["shard", "--index", "RMI", "--n", "500", "--ops", "100"])


def test_top_shards_cluster_view(capsys):
    code, out = _run(capsys, "top", "--shards", "2", "--index", "B+tree",
                     "--workload", "hotspot", "--dataset", "covid",
                     "--n", "3000", "--ops", "2500", "--once")
    assert code == 0
    assert "shard cluster" in out
    assert "worst shard" in out
    assert "B+tree/s1" in out


def test_top_shards_survives_rebalances_on_the_bus(capsys):
    # ALEX on four shards splits under the moving hotspot; every split
    # reports progress through the bus the tower folds.
    code, out = _run(capsys, "top", "--shards", "4", "--index", "ALEX",
                     "--workload", "hotspot", "--dataset", "covid",
                     "--n", "3000", "--ops", "3000", "--once")
    assert code == 0
    assert "shard cluster" in out

def test_top_shards_json(capsys):
    import json

    code, out = _run(capsys, "top", "--shards", "2", "--index", "B+tree",
                     "--workload", "hotspot", "--dataset", "covid",
                     "--n", "3000", "--ops", "2500", "--json")
    assert code == 0
    doc = json.loads(out)
    assert "tower" in doc and "cluster" in doc
    assert len(doc["cluster"]["shards"]) >= 2


@pytest.mark.parametrize("argv", [
    ("sweep", "--datasets", "covid", "--workloads", "balanced",
     "--indexes", "B+tree", "--n", "800", "--ops", "300", "--jobs", "1",
     "--no-cache"),
    ("migrate", "btree", "alex", "--dataset", "covid", "--n", "600",
     "--ops", "400", "--workload", "churn:0.3"),
    ("shard", "--index", "B+tree", "--dataset", "covid", "--n", "4000",
     "--lookups", "2000", "--ops", "4000", "--shard-counts", "1,2"),
    ("serve", "--index", "B+tree", "--dataset", "covid", "--n", "800",
     "--clients", "2", "--ops", "200"),
], ids=lambda argv: argv[0])
def test_json_stdout_is_one_document_under_the_history_gate(
        argv, tmp_path, capsys):
    import json

    extra = ["--out", str(tmp_path / "bench.json")] \
        if argv[0] in ("shard", "serve") else []
    code = main([*argv, *extra, "--json",
                 "--history", str(tmp_path / "hist.jsonl"), "--check"])
    captured = capsys.readouterr()
    assert code == 0
    json.loads(captured.out)
    assert "no regressions" in captured.err
    assert "history: appended to" in captured.err
