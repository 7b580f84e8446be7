"""Run manifests: schema, lifecycle, resolution, diffing, rendering."""

import json

import pytest

from repro.obs.metrics import MetricsRegistry
from repro.obs.runrec import (RUN_RECORD_SCHEMA_VERSION, RunRecorder,
                              diff_runs, environment_info, format_diff,
                              format_run, format_runs_table, list_runs,
                              resolve_run, waterfall_from_roots)
from repro.obs.trace import Tracer


def _record(tmp_path, command="process", **config) -> dict:
    with RunRecorder(command, runs_dir=tmp_path,
                     config=config, argv=["x"]) as recorder:
        recorder.set(exit_code=0)
    return json.loads(recorder.path.read_text())


class TestRecorderLifecycle:
    def test_record_schema_and_core_fields(self, tmp_path):
        record = _record(tmp_path, eps=0.12, min_pts=5)
        assert record["schema_version"] == RUN_RECORD_SCHEMA_VERSION
        assert record["command"] == "process"
        assert record["config"] == {"eps": 0.12, "min_pts": 5}
        assert record["status"] == "ok"
        assert record["error"] is None
        assert record["duration_s"] >= 0.0
        assert record["argv"] == ["x"]
        assert record["environment"]["python"]
        assert record["started"] <= record["finished"]

    def test_run_ids_unique_with_sortable_timestamp(self, tmp_path):
        ids = [RunRecorder("qa", runs_dir=tmp_path).run_id
               for _ in range(5)]
        assert len(set(ids)) == 5
        # Microsecond timestamp prefix: chronological even for
        # back-to-back runs, which 'latest'/'prev' rely on.
        stamps = [run_id.split("-")[0] for run_id in ids]
        assert stamps == sorted(stamps)
        assert len(set(stamps)) == 5
        for run_id in ids:
            assert len(run_id) == len("20260101T000000123456-abcdef")

    def test_exception_writes_error_record(self, tmp_path):
        with pytest.raises(RuntimeError):
            with RunRecorder("process", runs_dir=tmp_path):
                raise RuntimeError("matrix exploded")
        record = list_runs(tmp_path)[0]
        assert record["status"] == "error"
        assert record["error"] == "RuntimeError: matrix exploded"

    def test_metrics_snapshot_is_compact(self, tmp_path):
        registry = MetricsRegistry()
        registry.histogram("repro_seconds").observe(0.5)
        with RunRecorder("process", runs_dir=tmp_path) as recorder:
            recorder.set_metrics(registry)
        record = list_runs(tmp_path)[0]
        entry = record["metrics"]["histograms"][0]
        assert entry["count"] == 1
        assert "reservoir" not in entry

    def test_non_json_config_values_coerced(self, tmp_path):
        record = _record(tmp_path, weird={1, 2}, path=None)
        assert record["config"]["weird"] == repr({1, 2})
        assert record["config"]["path"] is None


class TestWaterfall:
    def _roots(self):
        tracer = Tracer()
        with tracer.span("process_log"):
            with tracer.span("parse"):
                pass
            with tracer.span("extract"):
                pass
        with tracer.span("distance_matrix"):
            with tracer.span("fill"):
                with tracer.span("distance_chunk"):
                    pass
        return tracer.roots

    def test_waterfall_keeps_two_levels_by_default(self):
        waterfall = waterfall_from_roots(self._roots())
        assert [node["name"] for node in waterfall] == \
            ["process_log", "distance_matrix"]
        fill = waterfall[1]["children"][0]
        assert fill["name"] == "fill"
        assert [c["name"] for c in fill["children"]] == \
            ["distance_chunk"]
        # Depth 2 means grandchildren are leaves.
        assert "children" not in fill["children"][0]

    def test_recorder_embeds_waterfall(self, tmp_path):
        with RunRecorder("process", runs_dir=tmp_path) as recorder:
            recorder.set_waterfall(self._roots())
        record = list_runs(tmp_path)[0]
        assert record["waterfall"][0]["name"] == "process_log"
        assert record["waterfall"][0]["seconds"] >= 0.0


class TestResolution:
    def test_latest_prev_and_prefix(self, tmp_path):
        first = _record(tmp_path, seed=1)
        second = _record(tmp_path, seed=2)
        assert resolve_run("latest", tmp_path)["run_id"] == \
            second["run_id"]
        assert resolve_run("prev", tmp_path)["run_id"] == \
            first["run_id"]
        assert resolve_run(first["run_id"][:23], tmp_path)["config"] \
            == {"seed": 1}

    def test_missing_and_ambiguous_are_key_errors(self, tmp_path):
        with pytest.raises(KeyError, match="no run records"):
            resolve_run("latest", tmp_path / "void")
        _record(tmp_path)
        _record(tmp_path)
        with pytest.raises(KeyError, match="no run record matching"):
            resolve_run("zzz", tmp_path)
        with pytest.raises(KeyError, match="ambiguous"):
            resolve_run("2", tmp_path)  # both ids start with "2"

    def test_unreadable_files_skipped(self, tmp_path):
        _record(tmp_path)
        (tmp_path / "junk.json").write_text("{not json")
        assert len(list_runs(tmp_path)) == 1


class TestDiff:
    def _pair(self, tmp_path):
        registry_a = MetricsRegistry()
        registry_a.counter("repro_pairs_total").inc(100)
        with RunRecorder("process", runs_dir=tmp_path,
                         config={"eps": 0.12}) as rec_a:
            rec_a.set_metrics(registry_a)
        registry_b = MetricsRegistry()
        registry_b.counter("repro_pairs_total").inc(50)
        with RunRecorder("process", runs_dir=tmp_path,
                         config={"eps": 0.2}) as rec_b:
            rec_b.set_metrics(registry_b)
        records = list_runs(tmp_path)
        return records[0], records[1]

    def test_config_and_metric_deltas(self, tmp_path):
        a, b = self._pair(tmp_path)
        diff = diff_runs(a, b)
        assert diff["config_changes"] == {
            "eps": {"a": 0.12, "b": 0.2}}
        row = next(r for r in diff["metrics"]
                   if r["key"] == "repro_pairs_total")
        assert row["delta"] == -50
        assert row["ratio"] == pytest.approx(0.5)

    def test_format_diff_renders(self, tmp_path):
        a, b = self._pair(tmp_path)
        text = format_diff(diff_runs(a, b))
        assert "eps: 0.12 -> 0.2" in text
        assert "repro_pairs_total" in text
        assert "(0.50x)" in text


class TestRendering:
    def test_table_and_show(self, tmp_path):
        record = _record(tmp_path, eps=0.12)
        table = format_runs_table([record])
        assert record["run_id"] in table
        assert "process" in table
        shown = format_run(record)
        assert "eps=0.12" in shown
        assert "status   : ok" in shown

    def test_empty_table(self):
        assert format_runs_table([]) == "(no run records)"

    def test_environment_info_shape(self):
        env = environment_info()
        assert set(env) >= {"python", "system", "machine", "cpus",
                            "pid"}
