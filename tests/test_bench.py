"""Benchmark scenarios emit well-formed CSV with the advertised columns."""

import csv

import pytest

from logstore import bench


def rows(path):
    with open(path) as fh:
        return list(csv.DictReader(fh))


class TestScenarios:
    def test_registry_is_complete(self):
        assert set(bench.SCENARIOS) == {"write-scaling", "freshness"}

    def test_unknown_scenario_rejected(self, tmp_path):
        with pytest.raises(SystemExit):
            bench.run_scenario("nope", str(tmp_path / "x.csv"))

    def test_write_scaling_schema(self, tmp_path):
        out = str(tmp_path / "ws.csv")
        bench.write_scaling(out, seed=1, ops=400)
        data = rows(out)
        assert [r["partitions"] for r in data] == ["1", "2", "4"]
        assert all(float(r["ops_per_sec"]) > 0 for r in data)

    def test_freshness_schema(self, tmp_path):
        out = str(tmp_path / "fr.csv")
        bench.freshness(out, seed=1, duration=0.5)
        data = rows(out)
        assert set(data[0]) == {"time", "node", "partition", "freshness"}
        assert all(0.0 <= float(r["freshness"]) <= 1.0 for r in data)
        # sampled every 20 ms for two followers
        assert len(data) == 2 * len({r["time"] for r in data})
