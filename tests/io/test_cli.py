"""End-to-end tests for the ``python -m repro`` command-line interface."""

import pytest

from repro.cli import main
from repro.io.csvio import read_csv_rows, write_csv_rows

import random as _random

_rng = _random.Random(7)
_DEPTS = ["management", "marketing", "personnel", "production"]
ROWS = [
    (
        _rng.choice(_DEPTS),
        _rng.randrange(0, 45),
        _rng.randrange(10, 60),
        i,
    )
    for i in range(250)
]
NAMES = ["dept", "years", "hours", "empno"]


@pytest.fixture
def csv_path(tmp_path):
    path = str(tmp_path / "in.csv")
    write_csv_rows(path, NAMES, ROWS)
    return path


class TestCompressDecompress:
    def test_round_trip(self, csv_path, tmp_path, capsys):
        avq = str(tmp_path / "data.avq")
        out = str(tmp_path / "out.csv")
        assert main(["compress", csv_path, avq, "--block-size", "512"]) == 0
        assert main(["decompress", avq, out]) == 0
        names, rows = read_csv_rows(out)
        assert names == NAMES
        assert sorted(rows) == sorted(ROWS)
        printed = capsys.readouterr().out
        assert "blocks" in printed

    def test_compress_reports_reduction(self, csv_path, tmp_path, capsys):
        avq = str(tmp_path / "data.avq")
        main(["compress", csv_path, avq])
        assert "% smaller" in capsys.readouterr().out


class TestInfo:
    def test_describes_container(self, csv_path, tmp_path, capsys):
        avq = str(tmp_path / "data.avq")
        main(["compress", csv_path, avq, "--block-size", "512"])
        assert main(["info", avq, "--blocks"]) == 0
        out = capsys.readouterr().out
        assert "tuples:      250" in out
        assert "dept" in out and "empno" in out
        assert "block directory" in out


class TestQuery:
    def test_range_query_counts_match(self, csv_path, tmp_path, capsys):
        avq = str(tmp_path / "data.avq")
        main(["compress", csv_path, avq, "--block-size", "512"])
        assert main(
            ["query", avq, "--attr", "years", "--between", "20", "30"]
        ) == 0
        out = capsys.readouterr().out
        expected = sum(1 for r in ROWS if 20 <= r[1] <= 30)
        assert f"-- {expected} matching rows" in out

    def test_clustered_query_decodes_fewer_blocks(
        self, csv_path, tmp_path, capsys
    ):
        avq = str(tmp_path / "data.avq")
        main(["compress", csv_path, avq, "--block-size", "512"])
        main(["query", avq, "--attr", "dept",
              "--between", "management", "management"])
        out = capsys.readouterr().out
        # "decoded X of Y blocks" with X < Y for the clustering attribute
        tail = out.rsplit("decoded ", 1)[1]
        x, y = int(tail.split()[0]), int(tail.split()[2])
        assert x < y

    def test_inverted_range_fails_cleanly(self, csv_path, tmp_path, capsys):
        avq = str(tmp_path / "data.avq")
        main(["compress", csv_path, avq])
        rc = main(["query", avq, "--attr", "dept",
                   "--between", "production", "management"])
        assert rc == 1
        assert "error:" in capsys.readouterr().err


class TestStats:
    def test_stats_reports_every_attribute(self, csv_path, tmp_path, capsys):
        avq = str(tmp_path / "data.avq")
        main(["compress", csv_path, avq, "--block-size", "512"])
        assert main(["stats", avq]) == 0
        out = capsys.readouterr().out
        for name in NAMES:
            assert name in out
        assert "250 tuples" in out
        assert "distinct >=" in out


class TestErrors:
    def test_missing_input_file(self, tmp_path, capsys):
        rc = main(["info", str(tmp_path / "nope.avq")])
        assert rc == 1
        assert "error:" in capsys.readouterr().err

    def test_compress_missing_csv(self, tmp_path, capsys):
        rc = main(["compress", str(tmp_path / "nope.csv"),
                   str(tmp_path / "x.avq")])
        assert rc == 1


class TestDurableAndRecover:
    def test_compress_durable_writes_a_log(self, csv_path, tmp_path,
                                           capsys):
        avq = str(tmp_path / "data.avq")
        wal = str(tmp_path / "data.wal")
        rc = main(["compress", csv_path, avq, "--block-size", "512",
                   "--durable", wal])
        assert rc == 0
        assert "write-ahead log" in capsys.readouterr().out
        from repro.storage.wal import read_log

        header, records, truncated, _ = read_log(wal)
        assert truncated is None
        assert header.block_size == 512
        assert len(records) == 1  # the checkpoint image
        assert len(records[0].ordinals) == len(ROWS)

    def test_recover_rebuilds_an_equivalent_container(
        self, csv_path, tmp_path, capsys
    ):
        avq = str(tmp_path / "data.avq")
        wal = str(tmp_path / "data.wal")
        out = str(tmp_path / "recovered.avq")
        csv_out = str(tmp_path / "recovered.csv")
        main(["compress", csv_path, avq, "--block-size", "512",
              "--durable", wal])
        rc = main(["recover", wal, out])
        assert rc == 0
        printed = capsys.readouterr().out
        assert "records scanned" in printed
        assert f"{len(ROWS)} tuples recovered" in printed
        assert main(["decompress", out, csv_out]) == 0
        _, rows = read_csv_rows(csv_out)
        assert sorted(rows) == sorted(ROWS)

    def test_recover_truncates_a_torn_tail(self, csv_path, tmp_path,
                                           capsys):
        avq = str(tmp_path / "data.avq")
        wal = str(tmp_path / "data.wal")
        out = str(tmp_path / "recovered.avq")
        main(["compress", csv_path, avq, "--durable", wal])
        data = open(wal, "rb").read()
        open(wal, "wb").write(data + b"\x00\x01torn")
        rc = main(["recover", wal, out])
        assert rc == 0
        assert "torn tail truncated" in capsys.readouterr().out

    def test_recover_rejects_a_non_log(self, csv_path, tmp_path, capsys):
        avq = str(tmp_path / "data.avq")
        main(["compress", csv_path, avq])
        rc = main(["recover", avq, str(tmp_path / "out.avq")])
        assert rc == 1
        assert "error:" in capsys.readouterr().err


class TestMetricsFlag:
    """The global --metrics flag: observability on, JSONL out."""

    def _events(self, path):
        import json

        with open(path, encoding="utf-8") as fh:
            return [json.loads(line) for line in fh]

    def test_query_dumps_metrics_jsonl(self, csv_path, tmp_path, capsys):
        avq = str(tmp_path / "data.avq")
        out = str(tmp_path / "m.jsonl")
        main(["compress", csv_path, avq, "--block-size", "512"])
        rc = main(["--metrics", out, "query", avq,
                   "--attr", "years", "--between", "10", "30"])
        assert rc == 0
        events = self._events(out)
        names = {e["name"] for e in events if e["event"] == "metric"}
        assert "cli.query.matches" in names
        assert "codec.ordinal_decodes" in names
        spans = [e for e in events if e["event"] == "span"]
        assert any(s["name"] == "cli.query" for s in spans)
        assert "event(s)" in capsys.readouterr().err

    def test_compress_dumps_metrics_jsonl(self, csv_path, tmp_path):
        avq = str(tmp_path / "data.avq")
        out = str(tmp_path / "m.jsonl")
        rc = main(["--metrics", out, "compress", csv_path, avq])
        assert rc == 0
        names = {
            e["name"] for e in self._events(out)
            if e["event"] == "metric"
        }
        assert "io.containers_written" in names
        assert "io.blocks_written" in names

    def test_scrub_dumps_metrics_jsonl(self, csv_path, tmp_path):
        avq = str(tmp_path / "data.avq")
        out = str(tmp_path / "m.jsonl")
        main(["compress", csv_path, avq])
        rc = main(["--metrics", out, "scrub", avq])
        assert rc == 0
        assert len(self._events(out)) > 0

    def test_stats_appends_observability_table(self, csv_path, tmp_path,
                                               capsys):
        avq = str(tmp_path / "data.avq")
        out = str(tmp_path / "m.jsonl")
        main(["compress", csv_path, avq])
        capsys.readouterr()
        assert main(["--metrics", out, "stats", avq]) == 0
        printed = capsys.readouterr().out
        assert "-- observability" in printed
        assert "codec.decode_ms" in printed

    def test_without_flag_no_observability_output(self, csv_path,
                                                  tmp_path, capsys):
        avq = str(tmp_path / "data.avq")
        main(["compress", csv_path, avq])
        capsys.readouterr()
        assert main(["stats", avq]) == 0
        assert "-- observability" not in capsys.readouterr().out

    def test_global_state_restored_after_run(self, csv_path, tmp_path):
        from repro.obs import runtime

        avq = str(tmp_path / "data.avq")
        out = str(tmp_path / "m.jsonl")
        main(["compress", csv_path, avq])
        main(["--metrics", out, "query", avq,
              "--attr", "years", "--between", "10", "30"])
        assert runtime.REGISTRY is None
        assert runtime.TRACER is None
