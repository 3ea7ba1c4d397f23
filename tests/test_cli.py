"""Unit tests for the command-line interface (repro.cli)."""

import pytest

from repro.cli import build_parser, main
from repro.data import people_table
from repro.table import save_csv


@pytest.fixture
def people_csv(tmp_path):
    path = tmp_path / "people.csv"
    save_csv(people_table(), path)
    return path


class TestParser:
    def test_mine_defaults(self):
        args = build_parser().parse_args(["mine", "data.csv"])
        assert args.command == "mine"
        assert args.min_support == 0.1
        assert args.interest is None

    def test_generate_defaults(self):
        args = build_parser().parse_args(["generate", "out.csv"])
        assert args.records == 10_000

    def test_missing_command_errors(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])


class TestMine:
    def test_mines_people_csv(self, people_csv, capsys):
        rc = main(
            [
                "mine",
                str(people_csv),
                "--min-support", "0.4",
                "--min-confidence", "0.5",
                "--max-support", "0.6",
                "--categorical", "Married",
            ]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "=>" in out
        assert "Married" in out

    def test_limit_and_stats(self, people_csv, capsys):
        rc = main(
            [
                "mine",
                str(people_csv),
                "--min-support", "0.4",
                "--max-support", "0.6",
                "--categorical", "Married",
                "--limit", "2",
                "--stats",
            ]
        )
        assert rc == 0
        captured = capsys.readouterr()
        assert len(captured.out.strip().splitlines()) <= 2
        assert "frequent itemsets" in captured.err

    def test_interest_flag(self, people_csv, capsys):
        rc = main(
            [
                "mine",
                str(people_csv),
                "--min-support", "0.4",
                "--max-support", "0.6",
                "--categorical", "Married",
                "--interest", "1.5",
                "--all-rules",
            ]
        )
        assert rc == 0
        assert "interesting" in capsys.readouterr().err


class TestGenerate:
    def test_generate_then_mine(self, tmp_path, capsys):
        csv_path = tmp_path / "credit.csv"
        rc = main(
            ["generate", str(csv_path), "--records", "300", "--seed", "1"]
        )
        assert rc == 0
        assert csv_path.exists()
        rc = main(
            [
                "mine",
                str(csv_path),
                "--min-support", "0.3",
                "--max-support", "0.5",
                "--completeness", "4",
                "--categorical", "employee_category,marital_status",
                "--max-itemset-size", "2",
            ]
        )
        assert rc == 0
        assert "=>" in capsys.readouterr().out


class TestMineExtensions:
    def test_save_json_and_csv(self, people_csv, tmp_path, capsys):
        json_path = tmp_path / "rules.json"
        csv_path = tmp_path / "rules.csv"
        rc = main(
            [
                "mine", str(people_csv),
                "--min-support", "0.4",
                "--max-support", "0.6",
                "--categorical", "Married",
                "--save-json", str(json_path),
                "--save-csv", str(csv_path),
            ]
        )
        assert rc == 0
        assert json_path.exists() and csv_path.exists()
        from repro.core.export import load_rules_json

        rules, metadata = load_rules_json(json_path)
        assert rules
        assert metadata["min_support"] == 0.4

    def test_partition_method_flag(self, people_csv, capsys):
        rc = main(
            [
                "mine", str(people_csv),
                "--min-support", "0.4",
                "--max-support", "0.6",
                "--categorical", "Married",
                "--partition-method", "equiwidth",
            ]
        )
        assert rc == 0

    def test_taxonomy_flag(self, tmp_path, capsys):
        import json as jsonlib

        csv_path = tmp_path / "sales.csv"
        csv_path.write_text(
            "item,winter\n"
            + "jacket,yes\n" * 6
            + "ski_pants,yes\n" * 5
            + "shirt,no\n" * 9
        )
        tax_path = tmp_path / "clothes.json"
        tax_path.write_text(
            jsonlib.dumps(
                {
                    "jacket": "outerwear",
                    "ski_pants": "outerwear",
                    "outerwear": "clothes",
                    "shirt": "clothes",
                }
            )
        )
        rc = main(
            [
                "mine", str(csv_path),
                "--min-support", "0.2",
                "--min-confidence", "0.5",
                "--max-support", "0.8",
                "--categorical", "winter",
                "--taxonomy", f"item={tax_path}",
                "--all-rules",
            ]
        )
        assert rc == 0
        assert "outerwear" in capsys.readouterr().out

    def test_bad_taxonomy_spec_rejected(self, people_csv):
        with pytest.raises(SystemExit, match="ATTR=FILE"):
            main(
                [
                    "mine", str(people_csv),
                    "--taxonomy", "nonsense",
                ]
            )


class TestFigureCommands:
    def test_figure7_small(self, capsys):
        rc = main(
            ["figure7", "--records", "1000", "--levels", "3,5"]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "K" in out
        assert "R=1.1" in out

    def test_figure9_small(self, capsys):
        rc = main(["figure9", "--sizes", "1000,2000"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "relative" in out.lower() or "minsup" in out


class TestAsyncBatchMode:
    def test_async_jobs_sweep(self, people_csv, capsys):
        rc = main(
            [
                "mine", str(people_csv),
                "--min-support", "0.4",
                "--max-support", "0.6",
                "--categorical", "Married",
                "--async-jobs", "2",
                "--sweep-confidence", "0.5,0.7",
                "--stats",
            ]
        )
        assert rc == 0
        captured = capsys.readouterr()
        assert "== job-1: min_conf=0.5" in captured.out
        assert "== job-2: min_conf=0.7" in captured.out
        assert "completed" in captured.out
        assert "jobs submitted:      2" in captured.err
        assert "completed:         2" in captured.err

    def test_async_jobs_sweep_interest(self, people_csv, capsys):
        rc = main(
            [
                "mine", str(people_csv),
                "--min-support", "0.4",
                "--max-support", "0.6",
                "--categorical", "Married",
                "--async-jobs", "1",
                "--sweep-interest", "1.1,2.0",
                "--all-rules",
            ]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "interest=1.1" in out
        assert "interest=2" in out

    def test_async_jobs_single_config(self, people_csv, capsys):
        # No sweep flags: batch mode degrades to one job.
        rc = main(
            [
                "mine", str(people_csv),
                "--min-support", "0.4",
                "--max-support", "0.6",
                "--categorical", "Married",
                "--async-jobs", "2",
                "--job-timeout", "300",
            ]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "== job-1:" in out
        assert "completed" in out

    def test_async_jobs_matches_sync_output_rules(self, people_csv, capsys):
        args = [
            "mine", str(people_csv),
            "--min-support", "0.4",
            "--min-confidence", "0.5",
            "--max-support", "0.6",
            "--categorical", "Married",
        ]
        assert main(args) == 0
        sync_out = capsys.readouterr().out
        assert main(args + ["--async-jobs", "1"]) == 0
        batch_out = capsys.readouterr().out
        for line in sync_out.strip().splitlines():
            if "=>" in line:
                assert line in batch_out


class TestObservabilityFlags:
    base = [
        "--min-support", "0.4",
        "--max-support", "0.6",
        "--categorical", "Married",
    ]

    def test_trace_and_metrics_out(self, people_csv, tmp_path, capsys):
        import json

        from repro.obs import (
            validate_chrome_trace,
            validate_metrics_snapshot,
            validate_spans_jsonl,
        )

        trace = tmp_path / "run.jsonl"
        metrics = tmp_path / "run-metrics.json"
        rc = main(
            [
                "mine", str(people_csv), *self.base,
                "--trace-out", str(trace),
                "--metrics-out", str(metrics),
            ]
        )
        assert rc == 0
        err = capsys.readouterr().err
        assert validate_spans_jsonl(trace) == []
        chrome = tmp_path / "run.chrome.json"
        assert validate_chrome_trace(json.loads(chrome.read_text())) == []
        assert (
            validate_metrics_snapshot(json.loads(metrics.read_text()))
            == []
        )
        for path in (trace, chrome, metrics):
            assert f"wrote {path}" in err

    def test_explain_timing_report(self, people_csv, capsys):
        rc = main(
            ["mine", str(people_csv), *self.base, "--explain-timing"]
        )
        assert rc == 0
        err = capsys.readouterr().err
        assert "mine [run]" in err
        assert "frequent_itemsets [stage]" in err
        assert "metrics:" in err
        assert "runs.completed: 1" in err

    def test_batch_mode_shared_trace(self, people_csv, tmp_path, capsys):
        from repro.obs import read_spans_jsonl, spans_by_kind

        trace = tmp_path / "sweep.jsonl"
        rc = main(
            [
                "mine", str(people_csv), *self.base,
                "--async-jobs", "2",
                "--sweep-confidence", "0.5,0.7",
                "--trace-out", str(trace),
            ]
        )
        assert rc == 0
        spans = read_spans_jsonl(trace)
        jobs = spans_by_kind(spans, "job")
        assert {span.name for span in jobs} == {"job-1", "job-2"}
        runs = spans_by_kind(spans, "run")
        assert {span.parent_id for span in runs} == {
            span.span_id for span in jobs
        }

    def test_flags_off_by_default(self, people_csv, capsys):
        rc = main(["mine", str(people_csv), *self.base])
        assert rc == 0
        err = capsys.readouterr().err
        assert "wrote" not in err
        assert "[run]" not in err


class TestGoalDirectedAndPredict:
    def mine_target_json(self, people_csv, tmp_path, target="Married"):
        out = tmp_path / "rules.json"
        rc = main(
            [
                "mine", str(people_csv),
                "--min-support", "0.3",
                "--min-confidence", "0.4",
                "--max-support", "0.6",
                "--categorical", "Married",
                "--completeness", "3",
                "--target", target,
                "--all-rules",
                "--save-json", str(out),
            ]
        )
        assert rc == 0
        return out

    def test_mine_target_emits_only_target_consequents(
        self, people_csv, tmp_path, capsys
    ):
        import json as json_module

        path = self.mine_target_json(people_csv, tmp_path)
        capsys.readouterr()
        document = json_module.loads(path.read_text())
        assert document["rules"], "no rules mined"
        for rule in document["rules"]:
            assert len(rule["consequent"]) == 1
            assert (
                rule["consequent"][0]["attribute_name"] == "Married"
            )

    def test_predict_match_and_target_modes(
        self, people_csv, tmp_path, capsys
    ):
        import json as json_module

        path = self.mine_target_json(people_csv, tmp_path)
        capsys.readouterr()
        rc = main(
            [
                "predict", str(path),
                "--record", '{"Age": 30}',
                "--target", "Married",
            ]
        )
        assert rc == 0
        payload = json_module.loads(capsys.readouterr().out)
        assert payload["target"] == "Married"
        if payload["matches"]:
            assert payload["prediction"]["display"] is not None

        # Match mode must answer what a separately built linear-scan
        # index answers from the same document.
        from repro.rules import RuleIndex
        from repro.serve.protocol import rule_match_payload

        rc = main(["predict", str(path), "--record", '{"Age": 30}'])
        assert rc == 0
        answer = json_module.loads(capsys.readouterr().out)
        linear = RuleIndex.from_document(
            json_module.loads(path.read_text()), use_index=False
        )
        expected = linear.match({"Age": 30})
        assert answer["num_matches"] == len(expected)
        assert answer["matches"] == json_module.loads(
            json_module.dumps(
                [rule_match_payload(m, linear) for m in expected]
            )
        )

    def test_predict_rejects_bad_inputs(self, people_csv, tmp_path):
        path = self.mine_target_json(people_csv, tmp_path)
        with pytest.raises(SystemExit):
            main(["predict", str(path), "--record", "not json"])
        with pytest.raises(SystemExit):
            main(["predict", str(path), "--record", "[1]"])
        with pytest.raises(SystemExit):
            main(
                [
                    "predict", str(path),
                    "--record", "{}",
                    "--target", "NotAnAttribute",
                ]
            )
        with pytest.raises(SystemExit):
            main(["predict", str(tmp_path / "nope.json"), "--record", "{}"])
