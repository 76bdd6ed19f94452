"""End-to-end CLI runs: eval, classify, report, determinism, resume."""

import argparse
import hashlib
import json
import math
import os
import re
import sqlite3
import subprocess
import sys
import threading
import time
from dataclasses import fields, replace
from pathlib import Path

import pytest
import requests

import ablation_suite
from conftest import build_db, dump_benchmark, pathological_queries, sql_reply, write_benchmark, GEMS_DB, STACK_DB

from nl2sqlbench import cli, context, gateway
from nl2sqlbench.cli import main
from nl2sqlbench.context import render_ddl
from nl2sqlbench.corpus import DatabaseHandle, load_benchmark
from nl2sqlbench.executor import NOT_A_QUERY
from nl2sqlbench.pipeline import REPAIR_TEMPLATE, PipelineConfig


@pytest.fixture()
def workspace(tmp_path):
    """A db root with the gems database, the ablation benchmark, and mock fixture."""
    db_root = tmp_path / "databases"
    build_db(db_root / "gems" / "gems.sqlite", GEMS_DB)
    items = ablation_suite.build_items()
    benchmark = write_benchmark(tmp_path / "bench.json", dump_benchmark(items, "spider"))
    fixture = tmp_path / "mock.json"
    fixture.write_text(json.dumps(ablation_suite.rules_as_json(), indent=1), encoding="utf-8")
    return {"root": tmp_path, "db_root": db_root, "benchmark": benchmark, "fixture": fixture}


def with_fallback(workspace, reply):
    """End the workspace's mock fixture with a rule whose empty pattern matches every prompt."""
    rules = json.loads(workspace["fixture"].read_text(encoding="utf-8"))
    workspace["fixture"].write_text(json.dumps(rules + [{"pattern": "", "reply": reply}]), encoding="utf-8")


def eval_argv(workspace, out: Path, *extra) -> list[str]:
    return [
        "eval",
        "--benchmark", str(workspace["benchmark"]),
        "--format", "spider",
        "--db-root", str(workspace["db_root"]),
        "--backend", "mock",
        "--mock-fixture", str(workspace["fixture"]),
        "--out", str(out),
        *extra,
    ]


def run_eval(workspace, out_name, *extra):
    out = workspace["root"] / out_name
    return main(eval_argv(workspace, out, *extra)), out


class TestEval:
    def test_greedy_smoke(self, workspace, capsys):
        code, out = run_eval(workspace, "run_greedy", "--track", "greedy", "--no-retrieval")
        assert code == 0
        report = json.loads((out / "report.json").read_text())
        assert report["strategy"] == "greedy"
        assert report["ex_percent"] == "40.0"
        assert (out / "manifest.txt").exists()
        assert (out / "records.jsonl").exists()
        assert (out / "report.csv").exists()

    def test_sql_d1_selector_configuration(self, workspace):
        code, out = run_eval(
            workspace, "run_sel", "--track", "sql-d1", "--k", "3",
            "--ablation", "a_r,a_g,a_s", "--seed", "1",
        )
        assert code == 0
        report = json.loads((out / "report.json").read_text())
        assert report["manifest"]["num_candidates"] == "3"
        assert report["manifest"]["verifier_max_iters"] == "0"
        assert report["ex_percent"] == "60.0"  # 8 base + 2 retrieval + 2 selection

    def test_minimal_sql_d1_command_line_takes_the_config_defaults(self):
        args = cli.build_parser().parse_args(
            ["eval", "--benchmark", "b.json", "--format", "bird", "--db-root", "db", "--track", "sql-d1", "--out", "o"]
        )
        assert cli._pipeline_config(args) == PipelineConfig()

    def test_full_pipeline(self, workspace):
        code, out = run_eval(
            workspace, "run_full", "--track", "sql-d1", "--k", "3", "--seed", "1",
        )
        assert code == 0
        report = json.loads((out / "report.json").read_text())
        assert report["ex_percent"] == "70.0"
        assert list(report["pass_at_k"]) == ["1", "2", "3"]

    def test_maj_track(self, workspace):
        code, out = run_eval(workspace, "run_maj", "--track", "maj", "--k", "3", "--no-retrieval")
        assert code == 0
        report = json.loads((out / "report.json").read_text())
        assert report["strategy"] == "maj"

    def test_sample_track(self, workspace):
        code, out = run_eval(workspace, "run_sample", "--track", "sample", "--no-retrieval")
        assert code == 0
        report = json.loads((out / "report.json").read_text())
        assert report["manifest"]["temperature"] == "0.8"
        assert report["manifest"]["num_candidates"] == "1"

    def test_manifest_written_before_records(self, workspace):
        _code, out = run_eval(workspace, "run_m", "--track", "greedy")
        manifest = (out / "manifest.txt").read_text()
        assert "track = greedy" in manifest
        header = (out / "records.jsonl").read_text().splitlines()[0]
        assert json.loads(header)["manifest_hash"]

    def test_greedy_matches_all_off_sql_d1(self, workspace):
        # the greedy track is the sql-d1 flow with only generation switched on
        outcomes = []
        for name, args in (
            ("g", ("--track", "greedy", "--no-retrieval")),
            ("a_g", ("--track", "sql-d1", "--ablation", "a_g")),
        ):
            code, out = run_eval(workspace, name, *args)
            assert code == 0
            records = [json.loads(l) for l in (out / "records.jsonl").read_text().splitlines()[1:]]
            outcomes.append([(r["item_id"], r["final_sql"], r["correct"]) for r in records])
        assert outcomes[0] == outcomes[1]
        assert sum(correct for _id, _sql, correct in outcomes[0]) == 8

    def test_no_retrieval_applies_to_sql_d1(self, workspace):
        code, out = run_eval(workspace, "run_nr", "--track", "sql-d1", "--k", "3", "--no-retrieval")
        assert code == 0
        manifest = (out / "manifest.txt").read_text()
        assert "use_retriever = False" in manifest
        assert "verifier_max_iters = 2\n" in manifest and "num_candidates = 3\n" in manifest

    def test_ablation_outside_sql_d1_rejected(self, workspace, capsys):
        code, out = run_eval(workspace, "run_abl", "--track", "maj", "--ablation", "a_r")
        assert code == 2
        assert "--ablation" in capsys.readouterr().err
        assert not out.exists()

    def test_infinite_result_costs_one_item(self, workspace):
        # SELECT 1e999 returns inf, which lies off the comparison's tolerance grid
        rules = [{"pattern": "How many gems are listed?", "reply": sql_reply("SELECT 1e999")}]
        workspace["fixture"].write_text(json.dumps(rules + ablation_suite.rules_as_json()), encoding="utf-8")
        code, out = run_eval(workspace, "run_inf", "--track", "greedy", "--no-retrieval")
        assert code == 0
        records = {r["item_id"]: r for r in map(json.loads, (out / "records.jsonl").read_text().splitlines()[1:])}
        assert len(records) == 20
        assert records["0"]["final_sql"] == "SELECT 1e999"
        assert records["0"]["outcome"]["status"] == "ok" and records["0"]["correct"] is False
        assert json.loads((out / "report.json").read_text())["ex_percent"] == "35.0"

    def test_zero_top_k_values_rejected_before_any_output(self, workspace, capsys):
        code, out = run_eval(workspace, "run_k0", "--track", "greedy", "--top-k-values", "0")
        assert code == 2
        assert "error:" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "setting",
        [
            ("--temperature", "3"),
            ("--temperature", "-0.5"),
            ("--timeout", "0"),
            ("--timeout", "-1"),
            ("--max-new-tokens", "0"),
            ("--values-per-column", "-1"),
        ],
    )
    def test_out_of_range_setting_rejected_before_any_output(self, workspace, capsys, setting):
        code, out = run_eval(workspace, "run_bad_setting", "--track", "maj", "--k", "2", *setting)
        assert code == 2
        assert "error:" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("workers", ["0", "-3"])
    def test_workers_below_one_rejected_before_any_output(self, workspace, capsys, workers):
        code, out = run_eval(workspace, "run_bad_workers", "--track", "greedy", "--workers", workers)
        assert code == 2
        assert f"--workers must be at least 1, got {workers}" in capsys.readouterr().err
        assert not out.exists()

    def test_zero_top_k_values_without_retrieval_runs(self, workspace):
        code, out = run_eval(workspace, "run_k0_nr", "--track", "greedy", "--no-retrieval", "--top-k-values", "0")
        assert code == 0
        assert json.loads((out / "report.json").read_text())["ex_percent"] == "40.0"

    def test_bad_config_exits_nonzero(self, workspace):
        code = main(
            [
                "eval",
                "--benchmark", str(workspace["benchmark"]),
                "--format", "spider",
                "--db-root", str(workspace["db_root"] / "missing"),
                "--backend", "mock",
                "--mock-fixture", str(workspace["fixture"]),
                "--out", str(workspace["root"] / "bad"),
            ]
        )
        assert code == 2


# values off the easy path: ±inf, an integer a double cannot hold (2^53 + 1), and 2^64, which
# SQLite reads as a real; each question's three replies by trajectory, and whether the greedy,
# maj and sql-d1 tracks end correct
EDGE_DB = ["CREATE TABLE edge (v)", "INSERT INTO edge VALUES (1e999), (-1e999), (9007199254740993), (18446744073709551616)"]
EDGE_ITEMS = [
    ("List every edge value.", "SELECT v FROM edge",
     ["SELECT v FROM edge ORDER BY v DESC", "SELECT v FROM edge WHERE v < 1e999", "SELECT v FROM edge WHERE v < 1e999"],
     (True, False, False)),
    ("Show both infinities.", "SELECT 1e999, -1e999",
     ["SELECT 1e999, 1e999", "SELECT -(-1e999), -1e999", "SELECT 2e999, -2e999"],
     (False, True, True)),
    ("What is two to the fifty-third plus one?", "SELECT 9007199254740993",
     ["SELECT 9007199254740992", "SELECT 9007199254740992 + 1", "SELECT 9007199254740993"],
     (False, True, True)),
    ("What is two to the sixty-fourth?", "SELECT 18446744073709551616",
     ["SELECT 18446744073709551616.0", "SELECT 9223372036854775807", "SELECT 18446744073709551615"],
     (True, True, True)),
    # trajectory 0 fails until the verifier repairs it; maj breaks the 1-1 tie by trajectory id
    ("Which edge value is largest?", "SELECT max(v) FROM edge",
     ["SELECT max(w) FROM edge", "SELECT max(v) FROM edge", "SELECT min(v) FROM edge"],
     (False, True, True)),
]


@pytest.fixture()
def edge_workspace(tmp_path):
    db_root = tmp_path / "databases"
    build_db(db_root / "edge" / "edge.sqlite", EDGE_DB)
    records = [{"question": q, "db_id": "edge", "query": gold} for q, gold, _replies, _correct in EDGE_ITEMS]
    benchmark = write_benchmark(tmp_path / "bench.json", records)
    rules = [{"pattern": "max(w)", "reply": sql_reply("SELECT max(v) FROM edge")}] + [
        {"pattern": q, "trajectory_id": i, "reply": sql_reply(sql)}
        for q, _gold, replies, _correct in EDGE_ITEMS
        for i, sql in enumerate(replies)
    ]
    fixture = tmp_path / "mock.json"
    fixture.write_text(json.dumps(rules), encoding="utf-8")
    return {"root": tmp_path, "db_root": db_root, "benchmark": benchmark, "fixture": fixture}


@pytest.mark.parametrize("track_index, track", enumerate(("greedy", "maj", "sql-d1")))
def test_eval_over_values_that_break_things(edge_workspace, track_index, track):
    code, out = run_eval(edge_workspace, track, "--track", track, "--k", "3")
    assert code == 0
    records = list(map(json.loads, (out / "records.jsonl").read_text().splitlines()[1:]))
    assert [r["correct"] for r in records] == [correct[track_index] for *_rest, correct in EDGE_ITEMS]
    assert all(r["gold_outcome"]["status"] == "ok" for r in records)


def run_chain(workspace, name, *eval_args):
    """eval -> classify -> report; the bytes of every output file, by file name."""
    code, out = run_eval(workspace, name, *eval_args)
    assert code == 0
    code = main(["classify", "--records", str(out / "records.jsonl"), "--db-root", str(workspace["db_root"])])
    assert code == 0
    rep_dir = workspace["root"] / f"{name}_rep"
    code = main(["report", "--records", str(out / "records.jsonl"), "--out", str(rep_dir)])
    assert code == 0
    files = [out / n for n in ("records.jsonl", "report.json", "report.csv", "labels.jsonl")]
    files += [rep_dir / n for n in ("curves.csv", "scatter.csv")]
    return {path.name: path.read_bytes() for path in files}


class TestDeterminism:
    def test_eval_classify_report_chain_byte_identical(self, workspace):
        outputs = {
            name: run_chain(workspace, name, "--track", "sql-d1", "--k", "3", "--seed", "7")
            for name in ("d1", "d2")
        }
        assert outputs["d1"] == outputs["d2"]


EXPECTED = Path(__file__).resolve().parent / "expected" / "sql_d1_k8"


class TestCommittedOutputs:
    """The sql-d1 k=8 chain reproduces committed output bytes, so a format drift fails."""

    def test_sql_d1_k8_chain_matches_expected_files(self, workspace, monkeypatch):
        # relative paths give the run one manifest hash wherever it runs; curves.csv and scatter.csv rows carry it
        monkeypatch.chdir(workspace["root"])
        relative = {key: path.relative_to(workspace["root"]) for key, path in workspace.items()}
        outputs = run_chain(relative, "k8", "--track", "sql-d1", "--k", "8", "--seed", "7")
        expected = sorted(p.name for p in EXPECTED.iterdir())
        assert expected == ["curves.csv", "labels.jsonl", "records.jsonl", "report.csv", "scatter.csv"]
        for name in expected:
            # the first line of each file is a header that carries run paths or their hash
            body = outputs[name].split(b"\n", 1)[1]
            assert body == (EXPECTED / name).read_bytes(), name


class TestResume:
    def test_resume_skips_done_items(self, workspace):
        code, out = run_eval(workspace, "resumable", "--track", "greedy", "--no-retrieval")
        assert code == 0
        lines = (out / "records.jsonl").read_text().splitlines()
        # drop the last 5 records, then resume
        (out / "records.jsonl").write_text("\n".join(lines[:-5]) + "\n", encoding="utf-8")
        code, _ = run_eval(workspace, "resumable", "--track", "greedy", "--no-retrieval", "--resume")
        assert code == 0
        resumed = (out / "records.jsonl").read_text().splitlines()
        assert len(resumed) == len(lines)
        ids = [json.loads(l)["item_id"] for l in resumed[1:]]
        assert len(ids) == len(set(ids)) == 20

    def test_resume_tolerates_truncated_tail(self, workspace):
        code, out = run_eval(workspace, "trunc", "--track", "greedy", "--no-retrieval")
        assert code == 0
        full = (out / "records.jsonl").read_bytes()
        lines = full.decode().splitlines()
        # simulate a crash mid-write: drop 3 records, leave half a line behind
        (out / "records.jsonl").write_text(
            "\n".join(lines[:-3]) + "\n" + lines[-3][: len(lines[-3]) // 2], encoding="utf-8"
        )
        code, _ = run_eval(workspace, "trunc", "--track", "greedy", "--no-retrieval", "--resume")
        assert code == 0
        assert (out / "records.jsonl").read_bytes() == full

    def test_resume_accepts_other_worker_count(self, workspace):
        code, out = run_eval(workspace, "workers", "--track", "greedy", "--no-retrieval", "--workers", "1")
        assert code == 0
        full = (out / "records.jsonl").read_bytes()
        lines = full.decode().splitlines()
        (out / "records.jsonl").write_text("\n".join(lines[:-5]) + "\n", encoding="utf-8")
        code, _ = run_eval(
            workspace, "workers", "--track", "greedy", "--no-retrieval", "--workers", "4", "--resume"
        )
        assert code == 0
        assert (out / "records.jsonl").read_bytes() == full

    def test_report_comes_from_the_records_held(self, workspace, monkeypatch):
        # the report of a resumed run is the uninterrupted run's, built without reading records.jsonl back
        code, out = run_eval(workspace, "held", "--track", "sql-d1", "--k", "3")
        assert code == 0
        full = {name: (out / name).read_bytes() for name in ("records.jsonl", "report.json", "report.csv")}
        lines = full["records.jsonl"].decode().splitlines()
        (out / "records.jsonl").write_text("\n".join(lines[:-5]) + "\n", encoding="utf-8")
        (out / "report.json").unlink()
        reads = []
        real = cli._read_records_file
        monkeypatch.setattr(cli, "_read_records_file", lambda *a, **k: reads.append(a) or real(*a, **k))
        code, _ = run_eval(workspace, "held", "--track", "sql-d1", "--k", "3", "--resume")
        assert code == 0 and len(reads) == 1
        assert {name: (out / name).read_bytes() for name in full} == full
        code, _ = run_eval(workspace, "held_fresh", "--track", "greedy")
        assert code == 0 and len(reads) == 1

    def test_resume_refuses_other_run(self, workspace):
        code, out = run_eval(workspace, "other", "--track", "greedy", "--no-retrieval")
        assert code == 0
        code, _ = run_eval(workspace, "other", "--track", "sql-d1", "--k", "3", "--resume")
        assert code == 2

    def test_refused_resume_keeps_the_old_manifest(self, workspace):
        code, out = run_eval(workspace, "kept", "--track", "greedy", "--no-retrieval")
        assert code == 0
        manifest = (out / "manifest.txt").read_text()
        code, _ = run_eval(workspace, "kept", "--track", "sample", "--resume")
        assert code == 2
        assert (out / "manifest.txt").read_text() == manifest
        assert "track = greedy\n" in manifest

    def test_resume_refuses_other_values_per_column(self, workspace):
        code, out = run_eval(workspace, "vpc", "--track", "greedy", "--values-per-column", "3")
        assert code == 0
        code, _ = run_eval(workspace, "vpc", "--track", "greedy", "--values-per-column", "0", "--resume")
        assert code == 2

    def test_manifest_records_every_config_field(self, workspace):
        code, out = run_eval(workspace, "mf", "--track", "greedy", "--values-per-column", "2", "--top-k-values", "5")
        assert code == 0
        manifest = (out / "manifest.txt").read_text()
        for field in fields(PipelineConfig):
            assert f"\n{field.name} = " in manifest
        assert "values_per_column = 2\n" in manifest and "retrieval_top_k = 5\n" in manifest


def _break_second_record(records_path: Path, defect: str) -> None:
    """Damage the second record line (file line 3): drop a required key of it or its outcome, or cut it short."""
    lines = records_path.read_text().splitlines()
    if defect == "invalid_json":
        lines[2] = lines[2][: len(lines[2]) // 2]
    else:
        record = json.loads(lines[2])
        if defect == "missing_key":
            del record["item_id"]
        else:
            del record["outcome"]["status"]
        lines[2] = json.dumps(record, sort_keys=True)
    records_path.write_text("\n".join(lines) + "\n", encoding="utf-8")


BAD_LINE = pytest.mark.parametrize("defect", ["missing_key", "missing_outcome_key", "invalid_json"])


class TestBadRecordLines:
    """A damaged line that is not a tolerated tail ends the command with `error: <path> line N` and exit 2."""

    @BAD_LINE
    def test_report(self, workspace, capsys, defect):
        _code, out = run_eval(workspace, "bad_rep", "--track", "greedy", "--no-retrieval")
        _break_second_record(out / "records.jsonl", defect)
        code = main(["report", "--records", str(out / "records.jsonl"), "--out", str(out / "rep")])
        assert code == 2
        expected = "not valid JSON" if defect == "invalid_json" else "not a record"
        assert capsys.readouterr().err.startswith(f"error: {out / 'records.jsonl'} line 3: {expected}: ")

    @BAD_LINE
    def test_classify(self, workspace, capsys, defect):
        _code, out = run_eval(workspace, "bad_cls", "--track", "greedy", "--no-retrieval")
        _break_second_record(out / "records.jsonl", defect)
        records = str(out / "records.jsonl")
        code = main(["classify", "--records", records, "--db-root", str(workspace["db_root"])])
        assert code == 2
        assert capsys.readouterr().err.startswith(f"error: {out / 'records.jsonl'} line 3: ")

    @BAD_LINE
    def test_eval_resume(self, workspace, capsys, defect):
        _code, out = run_eval(workspace, "bad_res", "--track", "greedy", "--no-retrieval")
        _break_second_record(out / "records.jsonl", defect)
        capsys.readouterr()
        code, _ = run_eval(workspace, "bad_res", "--track", "greedy", "--no-retrieval", "--resume")
        assert code == 2
        assert capsys.readouterr().err.startswith(f"error: {out / 'records.jsonl'} line 3: ")


class TestMalformedInputFiles:
    """A malformed input file ends the command with exit 2 and one `error: <path>: ...` line, not a traceback."""

    @staticmethod
    def _assert_rejected(code, capsys, path) -> str:
        captured = capsys.readouterr()
        assert code == 2
        assert captured.err.startswith(f"error: {path}: ")
        assert captured.err.count("\n") == 1 and "Traceback" not in captured.err
        return captured.out

    @pytest.mark.parametrize(
        "name, text",
        [
            ("benchmark", "not json"), ("benchmark", "\xff"), ("benchmark", "[]"),
            ("fixture", "{oops"), ("fixture", '[5]'),
        ],
        ids=[
            "benchmark_invalid_json", "benchmark_not_utf8", "benchmark_empty", "fixture_invalid_json",
            "fixture_rule_not_object",
        ],
    )
    def test_eval_writes_nothing(self, workspace, capsys, name, text):
        workspace[name].write_text(text, encoding="latin-1")
        code, out = run_eval(workspace, "bad_input", "--track", "greedy")
        self._assert_rejected(code, capsys, workspace[name])
        assert not out.exists()

    @pytest.mark.parametrize(
        "rule",
        [
            {"pattern": 5}, {"reply": None}, {"prompt_match": "exact"}, {"trajectory_id": True}, {"latency": "0.5"},
            {"trajectory": 3}, {"latency": math.nan}, {"latency": math.inf}, {"latency": -1}, {"tokens": -5},
        ],
        ids=[
            "pattern_not_text", "reply_not_text", "unknown_prompt_match", "trajectory_id_bool", "latency_text",
            "unknown_key", "latency_nan", "latency_infinite", "latency_negative", "tokens_negative",
        ],
    )
    def test_eval_rejects_a_fixture_rule_of_the_wrong_type(self, workspace, capsys, rule):
        workspace["fixture"].write_text(json.dumps([{"pattern": "gems", "reply": "SELECT 1", **rule}]))
        code, out = run_eval(workspace, "bad_rule", "--track", "greedy")
        self._assert_rejected(code, capsys, workspace["fixture"])
        assert not out.exists()

    @pytest.mark.parametrize("command", ["report", "classify", "eval_resume"])
    def test_records_file_not_utf8(self, workspace, capsys, command):
        code, out = run_eval(workspace, "not_utf8", "--track", "greedy", "--no-retrieval")
        records = out / "records.jsonl"
        records.write_bytes(b"\xff\xfe")
        capsys.readouterr()
        if command == "report":
            code = main(["report", "--records", str(records), "--out", str(out / "rep")])
        elif command == "classify":
            code = main(["classify", "--records", str(records), "--db-root", str(workspace["db_root"])])
        else:
            code, _ = run_eval(workspace, "not_utf8", "--track", "greedy", "--no-retrieval", "--resume")
        self._assert_rejected(code, capsys, records)

    @pytest.mark.parametrize("reader", ["benchmark", "fixture", "predictions", "classify", "report", "eval_resume"])
    def test_json_nested_too_deep(self, workspace, tmp_path, capsys, reader):
        # json.loads raises RecursionError here, which is not a ValueError
        deep = "[" * 100_000
        _code, run = run_eval(workspace, "deep", "--track", "greedy", "--no-retrieval")
        out = workspace["root"] / "out"
        db_root = ["--db-root", str(workspace["db_root"])]
        if reader == "predictions":
            path = tmp_path / "preds.json"
            path.write_text(deep, encoding="utf-8")
            gold = ["--gold", str(workspace["benchmark"]), "--format", "spider"]
            argv = ["classify", "--pred", str(path), *gold, *db_root]
        elif reader in ("benchmark", "fixture"):
            path = workspace[reader]
            path.write_text(deep, encoding="utf-8")
            argv = eval_argv(workspace, out, "--track", "greedy")
        else:
            path = run / "records.jsonl"
            lines = path.read_text(encoding="utf-8").splitlines()
            path.write_text("\n".join(lines[:2] + [deep] + lines[3:]) + "\n", encoding="utf-8")
            argv = {
                "classify": ["classify", "--records", str(path), *db_root],
                "report": ["report", "--records", str(path), "--out", str(out)],
                "eval_resume": eval_argv(workspace, run, "--track", "greedy", "--no-retrieval", "--resume"),
            }[reader]
        before = _files(run)
        capsys.readouterr()
        code = main(argv)
        captured = capsys.readouterr()
        assert code == 2
        assert captured.err.startswith(f"error: {path}") and captured.err.count("\n") == 1, captured.err
        assert "recursion depth" in captured.err and "Traceback" not in captured.err
        assert captured.out == "" and not out.exists() and _files(run) == before

    @staticmethod
    def _classify(workspace, tmp_path, predictions: str):
        pred = tmp_path / "preds.json"
        pred.write_text(predictions, encoding="utf-8")
        args = ["--gold", str(workspace["benchmark"]), "--format", "spider", "--db-root", str(workspace["db_root"])]
        return main(["classify", "--pred", str(pred), *args]), pred

    @pytest.mark.parametrize(
        "text",
        ["[not json", '[{"sql": "SELECT 1"}]', '[{"item_id": 0}]', '["SELECT 1"]', '{"0": 5}', '"SELECT 1"'],
        ids=["invalid_json", "no_item_id", "no_sql", "entry_not_object", "sql_not_text", "not_a_collection"],
    )
    def test_classify_predictions(self, workspace, tmp_path, capsys, text):
        code, pred = self._classify(workspace, tmp_path, text)
        assert self._assert_rejected(code, capsys, pred) == ""  # no label line before the error

    def test_classify_accepts_null_sql(self, workspace, tmp_path, capsys):
        code, _pred = self._classify(workspace, tmp_path, '[{"item_id": 0, "sql": null}]')
        assert code == 0
        assert len(capsys.readouterr().out.splitlines()) == len(ablation_suite.build_items())


def _files(directory: Path) -> dict | None:
    """Every file under ``directory`` with its bytes, or None when the directory does not exist."""
    if not directory.exists():
        return None
    return {p.relative_to(directory): p.read_bytes() for p in sorted(directory.rglob("*")) if p.is_file()}


def _write_lines(path: Path, *lines: str) -> Path:
    path.parent.mkdir(exist_ok=True)
    path.write_text("".join(line + "\n" for line in lines), encoding="utf-8")
    return path


# the request body fields that the harness sets, which --backend-param may not replace
HARNESS_BODY_FIELDS = ("model", "messages", "temperature", "max_tokens", "n", "seed")


def _refused_argv(case: str, workspace, run: Path, out: Path) -> list[str]:
    """Write what ``case`` needs beside the greedy run in ``run``, and return its command line."""
    header, *records = (run / "records.jsonl").read_text(encoding="utf-8").splitlines()
    variant = workspace["root"] / "variant" / "records.jsonl"
    missing = workspace["root"] / "missing.jsonl"

    def classify(*records_args):
        return ["classify", *records_args, "--db-root", str(workspace["db_root"]), "--out", str(out)]

    def report(*paths):
        return ["report", "--records", *map(str, paths), "--out", str(out)]

    def mock_without_fixture():  # no backend flags at all: a rule-less mock would read EX 0.0 and exit 0
        argv = eval_argv(workspace, out, "--track", "maj", "--k", "8")
        flag = argv.index("--mock-fixture")
        return argv[:flag] + argv[flag + 2 :]

    def resume_headerless():  # 3 greedy records with no header, resumed by a maj run
        _write_lines(run / "records.jsonl", *records[:3])
        return eval_argv(workspace, run, "--track", "maj", "--k", "8", "--resume")

    other_benchmark = json.dumps({**json.loads(header), "benchmark": "other.json"}, sort_keys=True)
    return {
        "classify_missing": lambda: classify("--records", str(missing)),
        "report_missing": lambda: report(missing),
        "classify_header_only": lambda: classify("--records", str(_write_lines(variant, header))),
        "report_header_only": lambda: report(_write_lines(variant, header)),
        "classify_headerless": lambda: classify("--records", str(_write_lines(variant, *records))),
        "report_headerless": lambda: report(_write_lines(variant, *records)),
        "resume_headerless": resume_headerless,
        "header_not_on_line_1": lambda: classify(
            "--records", str(_write_lines(variant, records[0], header, *records[1:]))
        ),
        "resume_other_run": lambda: eval_argv(workspace, run, "--track", "sample", "--resume"),
        "report_two_benchmarks": lambda: report(
            run / "records.jsonl", _write_lines(variant, other_benchmark, *records)
        ),
        "classify_neither_mode": classify,
        "mock_without_fixture": mock_without_fixture,
        "backend_param_empty_key": lambda: eval_argv(workspace, out, "--backend-param", "=5"),
        **{
            f"backend_param_{key}": lambda key=key: eval_argv(workspace, out, "--backend-param", f"{key}=1")
            for key in HARNESS_BODY_FIELDS
        },
    }[case]()


REFUSALS = {  # case -> a fragment of its error line
    "classify_missing": "No such file or directory",
    "report_missing": "No such file or directory",
    "classify_header_only": "records.jsonl: no records",
    "report_header_only": "records.jsonl: no records",
    "classify_headerless": "records.jsonl line 1: not a run header",
    "report_headerless": "records.jsonl line 1: not a run header",
    "resume_headerless": "records.jsonl line 1: not a run header",
    "header_not_on_line_1": "records.jsonl line 1: not a run header",
    "resume_other_run": "records.jsonl belongs to a different run",
    "report_two_benchmarks": "refusing to merge runs over different benchmarks",
    "classify_neither_mode": "classify needs --records, or --pred with --gold",
    "mock_without_fixture": "the mock backend needs --mock-fixture",
    "backend_param_empty_key": "--backend-param needs key=value, got '=5'",
    **{
        f"backend_param_{key}": f"--backend-param cannot set '{key}': the harness sets that body field itself"
        for key in HARNESS_BODY_FIELDS
    },
}


class TestRefusedCommands:
    """Every refused command exits 2 with one stderr line starting `error: `, and leaves --out as it was."""

    @pytest.mark.parametrize("case", list(REFUSALS))
    def test_one_error_line_and_out_untouched(self, workspace, capsys, case):
        _code, run = run_eval(workspace, "run", "--track", "greedy", "--no-retrieval")
        out = run if case.startswith("resume") else workspace["root"] / "out"
        argv = _refused_argv(case, workspace, run, out)
        before = _files(out)
        capsys.readouterr()
        code = main(argv)
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("error: ") and err.count("\n") == 1 and err.endswith("\n"), err
        assert REFUSALS[case] in err
        assert _files(out) == before


class TestUnreadableDatabase:
    """A file that is not a database ends the command at its first read, naming the database and its file."""

    @pytest.mark.parametrize("command", ["eval", "classify"])
    def test_one_error_line(self, workspace, capsys, command):
        _code, run = run_eval(workspace, "run", "--track", "greedy", "--no-retrieval")
        gems = workspace["db_root"] / "gems" / "gems.sqlite"
        gems.write_bytes(b"this is not a sqlite file" * 10)
        argv = {
            "eval": eval_argv(workspace, workspace["root"] / "junk", "--track", "greedy"),
            "classify": ["classify", "--records", str(run / "records.jsonl"), "--db-root", str(workspace["db_root"])],
        }[command]
        capsys.readouterr()
        assert main(argv) == 2
        assert capsys.readouterr().err == f"error: gems: catalog query failed: {gems}: file is not a database\n"


# one question over an unordered table: three replies that answer nothing, two correct ones and three that fail
NON_ANSWERS = ["-- no answer", "BEGIN", "PRAGMA table_info(t)"]
POOL_REPLIES = NON_ANSWERS + ["SELECT x FROM t ORDER BY x"] * 2 + [
    "SELECT y FROM t", "SELECT x FROM nowhere", "SELECT x FROM t WHERE"
]


class TestNonQueries:
    """A reply that is not a query is a failed execution: voting discards it and the verifier repairs it."""

    @pytest.fixture()
    def pool_workspace(self, tmp_path):
        db_root = tmp_path / "databases"
        build_db(db_root / "t" / "t.sqlite", ["CREATE TABLE t (x)", "INSERT INTO t VALUES (2), (1), (3)"])
        question = "List every x."
        item = {"question": question, "db_id": "t", "query": "SELECT x FROM t"}
        benchmark = write_benchmark(tmp_path / "bench.json", [item])
        # a repair prompt holds the question too, so the repair rule comes first
        rules = [{"pattern": "not a query", "reply": sql_reply("SELECT x FROM t")}] + [
            {"pattern": question, "trajectory_id": i, "reply": sql_reply(sql)} for i, sql in enumerate(POOL_REPLIES)
        ]
        fixture = tmp_path / "mock.json"
        fixture.write_text(json.dumps(rules), encoding="utf-8")
        return {"root": tmp_path, "db_root": db_root, "benchmark": benchmark, "fixture": fixture}

    def _record(self, workspace, name, *extra):
        code, out = run_eval(workspace, name, "--k", "8", "--seed", "1", *extra)
        assert code == 0
        return json.loads((out / "records.jsonl").read_text().splitlines()[1])

    def test_majority_vote_picks_a_correct_candidate(self, pool_workspace):
        # run as queries, the comment and BEGIN would give one empty result, tie the correct pair and win as trajectory 0
        record = self._record(pool_workspace, "maj", "--track", "maj")
        assert record["final_sql"] == "SELECT x FROM t ORDER BY x" and record["correct"] is True
        assert [c["extracted_sql"] for c in record["candidates"]] == POOL_REPLIES
        assert [e["status"] for e in record["pool"][:3]] == ["sql_error"] * 3

    def test_sql_d1_repairs_each_non_answer(self, pool_workspace):
        record = self._record(pool_workspace, "d1", "--track", "sql-d1", "--verifier-iters", "1")
        repairs = [text for stage, text in record["per_stage_trace"] if stage == "verify" and " iter " in text]
        refused = [text for text in repairs if text.endswith(f"sql_error: {NOT_A_QUERY}")]
        assert [text.split()[1] for text in refused] == ["0", "1", "2"]
        assert [c["extracted_sql"] for c in record["candidates"][:3]] == ["SELECT x FROM t"] * 3
        assert record["correct"] is True


class TestClassify:
    def test_labels_and_distribution(self, workspace):
        _code, out = run_eval(workspace, "cls", "--track", "greedy", "--no-retrieval")
        code = main(
            ["classify", "--records", str(out / "records.jsonl"), "--db-root", str(workspace["db_root"])]
        )
        assert code == 0
        labels = [json.loads(l) for l in (out / "labels.jsonl").read_text().splitlines()[1:]]
        assert len(labels) == 12  # the incorrect records at baseline
        report = json.loads((out / "report.json").read_text())
        assert sum(report["error_distribution"].values()) == 12

    def test_report_csv_carries_the_error_distribution(self, workspace):
        _code, out = run_eval(workspace, "cls_csv", "--track", "greedy", "--no-retrieval")
        assert main(["classify", "--records", str(out / "records.jsonl"), "--db-root", str(workspace["db_root"])]) == 0
        distribution = json.loads((out / "report.json").read_text())["error_distribution"]
        lines = (out / "report.csv").read_text().splitlines()[2:]
        rows = {metric: value for _s, _k, metric, value in (line.split(",") for line in lines)}
        assert {c: int(rows[f"errors_{c}"]) for c in distribution} == distribution
        assert sum(distribution.values()) == 12

    def test_report_in_another_directory_comes_from_the_records_read(self, workspace):
        # classify --out into another run's directory replaces that run's report with one from the records read
        _c1, greedy = run_eval(workspace, "cls_greedy", "--track", "greedy", "--no-retrieval")
        _c2, full = run_eval(workspace, "cls_full", "--track", "sql-d1", "--k", "3", "--seed", "1")
        classify = ["classify", "--records", str(greedy / "records.jsonl"), "--db-root", str(workspace["db_root"])]
        fresh = workspace["root"] / "cls_fresh"
        for out in (full, fresh):
            assert main([*classify, "--out", str(out)]) == 0
        for name in ("report.json", "report.csv"):
            assert (full / name).read_bytes() == (fresh / name).read_bytes(), name
        assert json.loads((full / "report.json").read_text())["strategy"] == "greedy"

    def test_records_file_without_records_refused_before_any_output(self, workspace, tmp_path, capsys):
        _code, out = run_eval(workspace, "cls_empty", "--track", "greedy", "--no-retrieval")
        records = tmp_path / "header_only" / "records.jsonl"
        records.parent.mkdir()
        records.write_text((out / "records.jsonl").read_text().splitlines()[0] + "\n", encoding="utf-8")
        capsys.readouterr()
        code = main(["classify", "--records", str(records), "--db-root", str(workspace["db_root"])])
        assert code == 2
        assert capsys.readouterr().err == f"error: {records}: no records\n"
        assert [p.name for p in records.parent.iterdir()] == ["records.jsonl"]

    def test_all_correct_gives_empty_labels(self, workspace, tmp_path):
        # an oracle fixture where the default reply is each item's gold is not
        # expressible per-item; use a one-item benchmark instead
        bench = write_benchmark(
            tmp_path / "one.json",
            [{"question": "How many gems are listed?", "db_id": "gems", "query": "SELECT COUNT(*) FROM gems"}],
        )
        out = tmp_path / "allcorrect"
        code = main(
            [
                "eval", "--benchmark", str(bench), "--format", "spider",
                "--db-root", str(workspace["db_root"]), "--backend", "mock",
                "--mock-fixture", str(workspace["fixture"]),
                "--track", "greedy", "--no-retrieval", "--out", str(out),
            ]
        )
        assert code == 0
        records = str(out / "records.jsonl")
        code = main(["classify", "--records", records, "--db-root", str(workspace["db_root"])])
        assert code == 0
        labels = (out / "labels.jsonl").read_text().splitlines()
        assert len(labels) == 1  # header only
        report = json.loads((out / "report.json").read_text())
        assert sum(report["error_distribution"].values()) == 0

    def test_standalone_pred_gold_mode(self, workspace, tmp_path, capsys):
        preds = {str(i): "SELECT 1" for i in range(3)}
        pred_path = tmp_path / "preds.json"
        pred_path.write_text(json.dumps(preds))
        bench = write_benchmark(
            tmp_path / "three.json",
            [
                {"question": f"q{i}", "db_id": "gems", "query": "SELECT COUNT(*) FROM gems"}
                for i in range(3)
            ],
        )
        code = main(
            [
                "classify", "--pred", str(pred_path), "--gold", str(bench),
                "--format", "spider", "--db-root", str(workspace["db_root"]),
            ]
        )
        assert code == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == 3
        assert all("category" in json.loads(l) for l in lines)


class TestPathologicalPredictions:
    def test_classify_labels_every_incorrect_record(self, workspace, tmp_path):
        # deep nesting, long chains and oversized literals, one reply each; every one is wrong
        queries = pathological_queries("gems", "carat")
        gold = "SELECT COUNT(*) FROM gems"
        bench = write_benchmark(
            tmp_path / "pathological.json", [{"question": f"<{n}>", "db_id": "gems", "query": gold} for n in queries]
        )
        workspace["fixture"].write_text(
            json.dumps([{"pattern": f"<{n}>", "reply": sql_reply(sql)} for n, sql in queries.items()]), encoding="utf-8"
        )
        workspace["benchmark"] = bench
        code, out = run_eval(workspace, "pathological", "--track", "greedy", "--no-retrieval")
        assert code == 0
        records = [json.loads(line) for line in (out / "records.jsonl").read_text().splitlines()[1:]]
        assert sorted(r["final_sql"] for r in records) == sorted(queries.values())
        code = main(["classify", "--records", str(out / "records.jsonl"), "--db-root", str(workspace["db_root"])])
        assert code == 0
        labels = [json.loads(line) for line in (out / "labels.jsonl").read_text().splitlines()[1:]]
        assert [l["item_id"] for l in labels] == [r["item_id"] for r in records if not r["correct"]]
        assert len(labels) == len(queries)
        unparseable = sorted(l["rationale"].split(" (at")[0] for l in labels if l["rationale"].startswith("unparse"))
        assert unparseable == ["unparseable: hex literal too big: 0x" + "f" * 300, "unparseable: nesting too deep"]


class TestReport:
    def test_scatter_two_rows(self, workspace):
        _c1, out1 = run_eval(workspace, "r1", "--track", "greedy", "--no-retrieval")
        _c2, out2 = run_eval(workspace, "r2", "--track", "sql-d1", "--k", "3")
        rep = workspace["root"] / "merged"
        code = main(
            [
                "report",
                "--records", str(out1 / "records.jsonl"), str(out2 / "records.jsonl"),
                "--out", str(rep),
            ]
        )
        assert code == 0
        scatter = (rep / "scatter.csv").read_text().splitlines()
        assert len(scatter) == 4  # comment, header, 2 rows

    def test_rows_name_their_run(self, workspace):
        # two runs of one track: without the manifest column their rows could not be told apart
        runs = [run_eval(workspace, f"k{k}", "--track", "sql-d1", "--k", k, "--seed", "1")[1] for k in ("2", "3")]
        hashes = [json.loads((out / "report.json").read_text())["manifest_hash"] for out in runs]
        rep = workspace["root"] / "two_k"
        assert main(["report", "--records", *(str(out / "records.jsonl") for out in runs), "--out", str(rep)]) == 0
        for name, key_columns in (("curves.csv", 3), ("scatter.csv", 1)):
            first, header, *rows = (rep / name).read_text().splitlines()
            assert first == f"# manifest {','.join(sorted(hashes))}" and header.endswith(",manifest")
            rows = [row.split(",") for row in rows]
            assert sorted({row[-1] for row in rows}) == sorted(hashes)
            keys = [(*row[:key_columns], row[-1]) for row in rows]
            assert len(set(keys)) == len(keys)
        scatter = [row.split(",") for row in (rep / "scatter.csv").read_text().splitlines()[2:]]
        assert [(row[0], row[-1]) for row in scatter] == [("sql-d1", h) for h in hashes]

    def test_pass_at_k_csv_non_decreasing(self, workspace):
        _code, out = run_eval(workspace, "curve", "--track", "sql-d1", "--k", "3")
        rep = workspace["root"] / "curverep"
        assert main(["report", "--records", str(out / "records.jsonl"), "--out", str(rep)]) == 0
        rows = [
            line.split(",")
            for line in (rep / "curves.csv").read_text().splitlines()[2:]
            if line.split(",")[2] == "pass_at_k"
        ]
        values = [float(r[3]) for r in rows]
        assert values == sorted(values)
        assert all("." in r[3] for r in rows)  # one-decimal formatting

    def test_refuses_cross_benchmark_merge(self, workspace, tmp_path):
        _c1, out1 = run_eval(workspace, "ra", "--track", "greedy", "--no-retrieval")
        bench2 = write_benchmark(
            tmp_path / "bench2.json",
            [{"question": "How many gems are listed?", "db_id": "gems", "query": "SELECT COUNT(*) FROM gems"}],
        )
        out2 = tmp_path / "rb"
        assert (
            main(
                [
                    "eval", "--benchmark", str(bench2), "--format", "spider",
                    "--db-root", str(workspace["db_root"]), "--backend", "mock",
                    "--track", "greedy", "--no-retrieval",
                    "--mock-fixture", str(workspace["fixture"]), "--out", str(out2),
                ]
            )
            == 0
        )
        code = main(
            [
                "report",
                "--records", str(out1 / "records.jsonl"), str(out2 / "records.jsonl"),
                "--out", str(tmp_path / "nope"),
            ]
        )
        assert code == 2


class TestBackendFailure:
    def test_unreachable_backend_exits_3_with_partial_records(self, workspace, monkeypatch):
        from nl2sqlbench import cli as cli_mod
        from nl2sqlbench.errors import BackendError

        class Exploding:
            def complete(self, request, trajectory_id):
                raise BackendError("connection refused")

        monkeypatch.setattr(cli_mod, "_make_backend", lambda config, workers: Exploding())
        code, out = run_eval(workspace, "down", "--track", "greedy", "--no-retrieval")
        assert code == 3
        lines = (out / "records.jsonl").read_text().splitlines()
        assert len(lines) == 21  # header + every item recorded as failed
        assert all(not json.loads(l)["correct"] for l in lines[1:])


# the statements context.extract_schema runs for sample values: a table's prefix read, and a column's pruned
# scan or full sort
_SAMPLING_QUERY = re.compile(
    r"WITH sqlite_prefix AS MATERIALIZED \(SELECT .+ LIMIT \d+\) SELECT -1, count\(\*\) FROM sqlite_prefix "
    r'|SELECT DISTINCT v FROM \(SELECT "(.+)" AS v FROM "(.+)" WHERE "\1" < '
    r'|SELECT DISTINCT "(.+)" FROM "(.+)" WHERE "\3" IS NOT NULL ORDER BY 1 LIMIT \d+$'
)
# the query context.read_literals runs for each text column
_LITERAL_QUERY = re.compile(r'SELECT DISTINCT "(.+)" FROM "(.+)" WHERE "\1" IS NOT NULL LIMIT \d+$')


class TestLiteralCache:
    """A run reads each text column's literals once per database, and only when retrieval runs."""

    @pytest.fixture()
    def literal_queries(self, monkeypatch):
        """The (table, column) of every literal query run through a DatabaseHandle connection."""
        statements = []
        connect, read_literals = DatabaseHandle.connect, context.read_literals

        def traced(handle):
            conn = connect(handle)
            conn.set_trace_callback(statements.append)
            return conn

        def slow_read(db, schema):
            time.sleep(0.05)  # long enough for every worker's item to wait on the database while it is read
            return read_literals(db, schema)

        monkeypatch.setattr(DatabaseHandle, "connect", traced)
        monkeypatch.setattr(context, "read_literals", slow_read)
        return lambda: [(m[2], m[1]) for m in map(_LITERAL_QUERY.match, statements) if m]

    @pytest.mark.parametrize("workers", ["1", "4"])
    def test_each_text_column_read_once_per_run(self, workspace, literal_queries, workers):
        code, _out = run_eval(workspace, f"lit{workers}", "--track", "greedy", "--workers", workers)
        assert code == 0
        assert sorted(literal_queries()) == [("gems", "name"), ("gems", "origin")]

    def test_no_retrieval_and_classify_read_none(self, workspace, literal_queries):
        code, out = run_eval(workspace, "lit_off", "--track", "sql-d1", "--k", "3", "--no-retrieval")
        assert code == 0
        records = str(out / "records.jsonl")
        code = main(["classify", "--records", records, "--db-root", str(workspace["db_root"])])
        assert code == 0
        assert literal_queries() == []


def describe_gems(workspace, column, text):
    """Give one column of the gems table a BIRD-layout description."""
    desc = workspace["db_root"] / "gems" / "database_description"
    desc.mkdir()
    (desc / "gems.csv").write_text(
        f"original_column_name,column_name,column_description\n{column},{column},{text}\n", encoding="utf-8"
    )


def two_database_workspace(workspace, gems_items=2, stack_items=2):
    """workspace with a stack database beside gems, and a benchmark of gems' items, then stack's."""
    build_db(workspace["db_root"] / "stack" / "stack.sqlite", STACK_DB)
    gems = [{"question": f"gems {i}", "db_id": "gems", "query": "SELECT COUNT(*) FROM gems"} for i in range(gems_items)]
    stack = [
        {"question": f"stack {i}", "db_id": "stack", "query": "SELECT COUNT(*) FROM users"} for i in range(stack_items)
    ]
    write_benchmark(workspace["benchmark"], gems + stack)
    return workspace


class TestDatabaseCache:
    """A run reads each database of its pending items once, by a task ahead of the items."""

    def test_a_slow_database_holds_up_no_other(self, workspace, monkeypatch):
        two_database_workspace(workspace)
        stack_read, waited = threading.Event(), []
        extract_schema = context.extract_schema

        def stalled(db, descriptions=None):
            if db.db_id == "gems":
                # gems comes first in the benchmark, yet can be read only once stack has been
                waited.append(stack_read.wait(timeout=10))
            schema = extract_schema(db, descriptions)
            if db.db_id == "stack":
                stack_read.set()
            return schema

        monkeypatch.setattr(context, "extract_schema", stalled)
        with_fallback(workspace, "SELECT 1")
        code, out = run_eval(workspace, "slow", "--track", "greedy", "--workers", "2")
        assert code == 0
        assert waited == [True]
        records = [json.loads(l) for l in (out / "records.jsonl").read_text().splitlines()[1:]]
        assert [r["db_id"] for r in records] == ["gems", "gems", "stack", "stack"]

    @pytest.mark.parametrize("workers", ["1", "4"])
    def test_each_database_of_the_pending_items_loaded_once(self, workspace, monkeypatch, workers):
        two_database_workspace(workspace, gems_items=3, stack_items=3)
        loaded = []
        load_database = cli.load_database
        monkeypatch.setattr(
            cli, "load_database", lambda db_id, *a, **k: loaded.append(db_id) or load_database(db_id, *a, **k)
        )
        with_fallback(workspace, "SELECT 1")
        run = ("--track", "greedy", "--workers", workers)
        code, out = run_eval(workspace, "loads", *run)
        assert code == 0 and sorted(loaded) == ["gems", "stack"]
        # nothing pending: no database is read
        loaded.clear()
        code, _out = run_eval(workspace, "loads", *run, "--resume")
        assert code == 0 and loaded == []
        # only stack's items pending: gems is not read
        lines = (out / "records.jsonl").read_text().splitlines()
        (out / "records.jsonl").write_text("\n".join(lines[:-3]) + "\n", encoding="utf-8")
        code, _out = run_eval(workspace, "loads", *run, "--resume")
        assert code == 0 and loaded == ["stack"]

    def test_classify_samples_no_values(self, workspace, monkeypatch):
        code, out = run_eval(workspace, "cls", "--track", "sql-d1", "--k", "3")
        assert code == 0
        statements = []
        connect = DatabaseHandle.connect

        def traced(handle):
            conn = connect(handle)
            conn.set_trace_callback(statements.append)
            return conn

        monkeypatch.setattr(DatabaseHandle, "connect", traced)
        assert main(["classify", "--records", str(out / "records.jsonl"), "--db-root", str(workspace["db_root"])]) == 0
        assert statements and not [s for s in statements if "DISTINCT" in s]

    def test_eval_without_retrieval_samples_no_values(self, workspace, monkeypatch):
        describe_gems(workspace, "carat", "weight in carats")
        statements = []
        connect = DatabaseHandle.connect

        def traced(handle):
            conn = connect(handle)
            conn.set_trace_callback(statements.append)
            return conn

        def sampling_queries():
            return [s for s in statements if _SAMPLING_QUERY.match(s)]

        monkeypatch.setattr(DatabaseHandle, "connect", traced)
        with monkeypatch.context() as patched:
            # the base context as it was built before: sampled, though no prompt shows the samples
            patched.setattr(context, "read_catalog", context.extract_schema)
            code, sampled = run_eval(workspace, "nr_sampled", "--track", "sql-d1", "--k", "3", "--no-retrieval")
        # the gems table is shorter than the prefix read, which settles its columns
        assert code == 0 and len(sampling_queries()) == 1
        statements.clear()
        code, out = run_eval(workspace, "nr", "--track", "sql-d1", "--k", "3", "--no-retrieval")
        assert code == 0
        assert statements and sampling_queries() == []
        assert (out / "records.jsonl").read_bytes() == (sampled / "records.jsonl").read_bytes()

    def test_catalog_holds_the_descriptions(self, workspace):
        describe_gems(workspace, "name", "the gem's trade name")
        _handle, unsampled, no_literals = cli._load_database(workspace["db_root"], False, "gems")
        handle, sampled, literals = cli._load_database(workspace["db_root"], True, "gems")
        assert handle.db_id == "gems" and no_literals is None and literals.entries
        assert sampled.sample_values and unsampled.sample_values == {}
        assert unsampled == replace(sampled, sample_values={})
        assert unsampled.tables[0].columns[1].description == "the gem's trade name"
        assert render_ddl(unsampled, {}, 0) == render_ddl(sampled, {}, 0)


class TestDatabaseLayout:
    """A database is <db-root>/<db_id>/<db_id>.sqlite, else <db-root>/<db_id>.sqlite; its descriptions sit in
    <db-root>/<db_id>/database_description/ either way."""

    @staticmethod
    def flatten(workspace):
        (workspace["db_root"] / "gems" / "gems.sqlite").rename(workspace["db_root"] / "gems.sqlite")

    @pytest.mark.parametrize("layout", ["nested", "flat"])
    def test_descriptions_come_from_the_database_directory(self, workspace, layout):
        describe_gems(workspace, "name", "the gem's trade name")
        # a description directory right under the root belongs to no database
        shared = workspace["db_root"] / "database_description"
        shared.mkdir()
        (shared / "gems.csv").write_text("original_column_name,column_description\nname,not this\n", encoding="utf-8")
        if layout == "flat":
            self.flatten(workspace)
        handle, schema, _literals = cli._load_database(workspace["db_root"], False, "gems")
        nested = workspace["db_root"] / "gems" / "gems.sqlite"
        assert handle.path == (nested if layout == "nested" else workspace["db_root"] / "gems.sqlite")
        assert schema.tables[0].columns[1].description == "the gem's trade name"

    def test_flat_layout_gives_the_nested_records(self, workspace):
        describe_gems(workspace, "name", "the gem's trade name")
        run = ("--track", "sql-d1", "--k", "3", "--seed", "1")
        code, nested = run_eval(workspace, "nested", *run)
        assert code == 0
        self.flatten(workspace)
        code, flat = run_eval(workspace, "flat", *run)
        assert code == 0
        assert (flat / "records.jsonl").read_bytes() == (nested / "records.jsonl").read_bytes()

    def test_missing_database_ends_eval_naming_both_paths(self, workspace, capsys):
        nested = workspace["db_root"] / "gems" / "gems.sqlite"
        nested.unlink()
        code, _out = run_eval(workspace, "none", "--track", "greedy")
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: database 'gems': no file at ")
        assert str(nested) in err and str(workspace["db_root"] / "gems.sqlite") in err


class TestClassifyCatalog:
    def test_classify_reads_no_descriptions_and_labels_as_before(self, workspace, monkeypatch):
        describe_gems(workspace, "name", "the gem's trade name")
        code, out = run_eval(workspace, "cls", "--track", "sql-d1", "--k", "3")
        assert code == 0
        classify = ["classify", "--records", str(out / "records.jsonl"), "--db-root", str(workspace["db_root"])]
        read_catalog, load_descriptions = context.read_catalog, context.load_descriptions
        with monkeypatch.context() as patched:
            # the catalog as classify read it before: with the database's column descriptions
            patched.setattr(
                context, "read_catalog",
                lambda db, descriptions=None: read_catalog(db, load_descriptions(workspace["db_root"] / db.db_id)),
            )
            assert main(classify) == 0
        described = (out / "labels.jsonl").read_bytes()
        calls = []
        monkeypatch.setattr(context, "load_descriptions", lambda db_dir: calls.append(db_dir) or {})
        assert main(classify) == 0
        assert calls == []
        assert (out / "labels.jsonl").read_bytes() == described
        assert described.count(b"\n") > 1  # some records were labelled


class TestMockFallback:
    # sha256 of the record lines (the header aside) of this run with --mock-default-reply FALLBACK, the flag
    # that a catch-all rule replaced, and of the same run with no fallback at all
    FALLBACK = sql_reply("SELECT COUNT(*) FROM gems")
    WITH_FALLBACK = "1d7b672c150d5cd447c57df4df5eb1082a38c56f30a1190c03f13f6afd0af9e5"
    WITHOUT = "0e735677a2bd8437950456acbb36bf233e31955d95d93deb6159fb4fe9fb1e42"

    @staticmethod
    def record_digest(out):
        lines = (out / "records.jsonl").read_text(encoding="utf-8").splitlines()[1:]
        return hashlib.sha256("\n".join(lines).encode()).hexdigest()

    def test_a_catch_all_rule_gives_the_records_of_a_default_reply(self, workspace):
        # with k=8, trajectories 3-7 of "Which origin has the most gems?" match no rule but the fallback
        run = ("--track", "sql-d1", "--k", "8", "--seed", "1", "--workers", "1")
        code, bare = run_eval(workspace, "bare", *run)
        assert code == 0 and self.record_digest(bare) == self.WITHOUT
        with_fallback(workspace, self.FALLBACK)
        code, out = run_eval(workspace, "fallback", *run)
        assert code == 0 and self.record_digest(out) == self.WITH_FALLBACK

    def test_an_unmatched_prompt_gets_an_empty_reply(self):
        backend = gateway.MockBackend([gateway.MockRule(pattern="gems", reply="hit")])
        request = gateway.GenerationRequest(prompt="no rule matches this")
        assert backend.complete(request, 0) == gateway.BackendReply("", None, 0.0)


@pytest.fixture()
def remote_backends(monkeypatch):
    """Each RemoteBackend that eval makes, in order."""
    made = []

    class Recording(gateway.RemoteBackend):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            made.append(self)

    monkeypatch.setattr(cli, "RemoteBackend", Recording)
    return made


class TestRemoteManifest:
    """The manifest records a remote backend's URL and model as resolved, flags or environment; never its key."""

    @pytest.fixture()
    def remote(self, workspace, monkeypatch):
        monkeypatch.setenv("BACKEND_MODEL", "model-a")
        monkeypatch.setenv("BACKEND_API_KEY", "key-that-is-never-recorded")
        reply = gateway.BackendReply(sql_reply("SELECT 1"), None, 0.0)
        monkeypatch.setattr(gateway.RemoteBackend, "complete", lambda self, request, trajectory_id: reply)

        def run(name, url, *extra):
            monkeypatch.setenv("BACKEND_URL", url)
            return run_eval(workspace, name, "--track", "greedy", "--no-retrieval", "--backend", "remote", *extra)

        return run

    def test_url_and_model_from_the_environment(self, remote):
        code, out = remote("env", "http://a.test/v1/chat/completions")
        assert code == 0
        manifest = (out / "manifest.txt").read_text(encoding="utf-8")
        assert "backend_url = http://a.test/v1/chat/completions\n" in manifest
        assert "backend_model = model-a\n" in manifest
        assert "mock_fixture = \n" in manifest  # the remote backend reads no fixture
        assert not [p for p in out.iterdir() if b"key-that-is-never-recorded" in p.read_bytes()]

    @pytest.mark.parametrize("cpus", [1, 64])
    def test_default_workers_are_eight_whatever_the_cpus_and_databases(self, remote, monkeypatch, cpus):
        # the run's threads mostly wait on the network, so its default is not capped by the CPU count
        monkeypatch.setattr(os, "cpu_count", lambda: cpus)
        code, out = remote("workers", "http://a.test/v1/chat/completions")
        assert code == 0 and recorded_workers(out) == "8"

    def test_the_session_keeps_a_connection_per_worker(self, remote, remote_backends):
        for name, extra, workers in (("default", (), 8), ("three", ("--workers", "3"), 3)):
            code, out = remote(name, "http://a.test/v1/chat/completions", *extra)
            assert code == 0 and recorded_workers(out) == str(workers)
            for scheme in ("http://", "https://"):
                assert remote_backends[-1].session.get_adapter(scheme + "a.test")._pool_maxsize == workers
        assert len(remote_backends) == 2

    def test_another_server_is_another_run(self, remote):
        code, out = remote("a", "http://a.test/v1/chat/completions")
        assert code == 0
        code, other = remote("b", "http://b.test/v1/chat/completions")
        assert code == 0
        headers = [json.loads((d / "records.jsonl").read_text(encoding="utf-8").splitlines()[0]) for d in (out, other)]
        assert headers[0]["manifest_hash"] != headers[1]["manifest_hash"]
        code, _out = remote("a", "http://b.test/v1/chat/completions", "--resume")
        assert code == 2


# the tail of every repair prompt
REPAIR_REQUEST = REPAIR_TEMPLATE.split("{error}")[1]


class TestRemoteStub:
    """Remote runs against the loopback chat stub, which answers from the workspace's mock fixture."""

    SQL_D1 = ("--track", "sql-d1", "--k", "8", "--seed", "0")

    @pytest.fixture()
    def stub(self, workspace, chat_stub):
        chat_stub.backend = gateway.MockBackend.from_file(workspace["fixture"])
        return chat_stub

    @staticmethod
    def run_remote(workspace, stub, name, *extra):
        return run_eval(workspace, name, *extra, "--backend", "remote", "--backend-url", stub.url)

    def test_requests_in_flight_peak_at_the_worker_count(self, workspace, stub, remote_backends):
        stub.delay = 0.02
        code, _out = self.run_remote(workspace, stub, "three", *self.SQL_D1, "--workers", "3")
        assert code == 0
        # an item's k calls and its repairs run on its worker, one at a time
        assert any(prompt.endswith(REPAIR_REQUEST) for prompt, _trajectory in stub.calls)
        assert stub.peak == 3
        # eval closed the session, and with it the connections it kept
        backend, = remote_backends
        assert not backend.session.get_adapter(stub.url).poolmanager.pools

    def test_records_equal_a_mock_run_but_for_latencies(self, workspace, stub):
        def records(out):
            lines = [json.loads(line) for line in (out / "records.jsonl").read_text(encoding="utf-8").splitlines()]
            for record in lines[1:]:  # the header names the backend
                del record["total_latency_seconds"]
                for candidate in record["candidates"]:
                    del candidate["latency_seconds"]
            return lines[1:]

        code, mock = run_eval(workspace, "mock", *self.SQL_D1, "--workers", "2")
        assert code == 0
        code, remote = self.run_remote(workspace, stub, "remote", *self.SQL_D1, "--workers", "2")
        assert code == 0
        assert len(records(remote)) == 20 and records(remote) == records(mock)


class TestBackendParams:
    """A --backend-param value that reads as a JSON scalar reaches the request body and the manifest as that scalar."""

    ARGS = ["steps=64", "block_length=32", "threshold=0.9", "remask=true", "stop=null", "name=low_conf", 'tag="64"']
    PARSED = {
        "steps": 64, "block_length": 32, "threshold": 0.9, "remask": True, "stop": None, "name": "low_conf", "tag": "64"
    }

    def test_request_body(self):
        deep = "[" * 100_000  # json.loads raises RecursionError on it, not ValueError
        params = cli._parse_backend_params(self.ARGS + ["ids=[1, 2]", "limit=NaN", "huge=1e999", f"deep={deep}"])
        body = gateway.RemoteBackend(url="http://backend.test").build_body(
            gateway.GenerationRequest(prompt="p", backend_params=params), 0
        )
        # arrays, NaN and an overflowing number are not JSON scalars, so they are sent as their text
        texts = {"ids": "[1, 2]", "limit": "NaN", "huge": "1e999", "deep": deep}
        assert {key: body[key] for key in params} == {**self.PARSED, **texts}
        assert type(body["steps"]) is int and type(body["threshold"]) is float

    def test_the_harness_body_fields_are_the_refused_keys(self):
        body = gateway.RemoteBackend(url="http://backend.test").build_body(gateway.GenerationRequest("p", seed=1), 0)
        assert set(body) == gateway.RemoteBackend.BODY_FIELDS == set(HARNESS_BODY_FIELDS)

    def test_an_unreserved_key_reaches_the_request_body(self, workspace, monkeypatch):
        bodies = []

        def post(session, url, **kw):
            bodies.append(kw["json"])
            response = requests.Response()
            response.status_code = 200
            response._content = json.dumps({"choices": [{"message": {"content": sql_reply("SELECT 1")}}]}).encode()
            return response

        monkeypatch.setattr(requests.Session, "post", post)
        monkeypatch.setenv("BACKEND_URL", "http://backend.test")
        argv = ["--track", "greedy", "--no-retrieval", "--backend", "remote", "--seed", "3", "--backend-param", "steps=64"]
        code, _out = run_eval(workspace, "steps", *argv)
        assert code == 0 and bodies
        assert {(body["steps"], body["seed"], body["temperature"], body["n"]) for body in bodies} == {(64, 3, 0.0, 1)}

    def test_manifest(self, workspace):
        argv = ["--track", "greedy", "--no-retrieval"]
        code, out = run_eval(workspace, "params", *argv, *(f"--backend-param={arg}" for arg in self.ARGS))
        assert code == 0
        manifest = (out / "manifest.txt").read_text(encoding="utf-8")
        assert f"backend_params = {json.dumps(self.PARSED, sort_keys=True)}\n" in manifest
        code, quoted = run_eval(workspace, "quoted", *argv, '--backend-param=steps="64"')
        assert code == 0
        assert 'backend_params = {"steps": "64"}\n' in (quoted / "manifest.txt").read_text(encoding="utf-8")


class TestLatencyTotals:
    def test_candidate_latencies_sum_alike_on_every_python(self, workspace):
        # sum() of 0.1, 0.2 and 0.3 gives 0.6000000000000001 before Python 3.12 and 0.6 from 3.12 on
        workspace["fixture"].write_text(json.dumps([
            {"pattern": "", "reply": sql_reply("SELECT 1"), "trajectory_id": i, "latency": latency}
            for i, latency in enumerate([0.1, 0.2, 0.3])
        ]), encoding="utf-8")
        code, out = run_eval(workspace, "latency", "--track", "maj", "--k", "3", "--no-retrieval")
        assert code == 0
        _header, *lines = (out / "records.jsonl").read_text(encoding="utf-8").splitlines()
        assert lines and {json.loads(line)["total_latency_seconds"] for line in lines} == {0.6}
        report = json.loads((out / "report.json").read_text(encoding="utf-8"))
        assert report["mean_latency_seconds"] == 0.6


class TestReadmeFlags:
    def test_readme_and_parser_name_the_same_flags(self):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
        documented = set(re.findall(r"(?<![\w-])--[a-z][a-z-]*", readme)) - {"--no-build-isolation"}
        commands = next(a for a in cli.build_parser()._actions if isinstance(a, argparse._SubParsersAction))
        options = {
            name: {o for action in sub._actions for o in action.option_strings if o.startswith("--")} - {"--help"}
            for name, sub in commands.choices.items()
        }
        assert sorted(documented - set().union(*options.values())) == []
        for name in ("eval", "classify", "report"):
            assert sorted(options[name] - documented) == [], name


def recorded_workers(out: Path) -> str:
    return re.search(r"^workers = (.*)$", (out / "manifest.txt").read_text(encoding="utf-8"), re.M).group(1)


class TestWorkers:
    @staticmethod
    def assert_same_but_workers(one: Path, other: Path, workers: str, other_workers: str):
        # outputs match byte for byte, apart from the recorded worker count itself
        for name, entry in (("records.jsonl", '"workers": "{}"'), ("report.json", '"workers": "{}"'),
                            ("manifest.txt", "workers = {}\n")):
            mine, theirs = (entry.format(w).encode() for w in (workers, other_workers))
            one_bytes = (one / name).read_bytes()
            assert one_bytes.count(mine) == 1, name
            assert one_bytes.replace(mine, theirs) == (other / name).read_bytes(), name

    def test_parallel_eval_matches_serial(self, workspace):
        for run, track in (
            ("greedy", ("--track", "greedy", "--no-retrieval")),
            ("k8", ("--track", "sql-d1", "--k", "8")),
        ):
            _c1, serial = run_eval(workspace, f"{run}_w1", *track, "--workers", "1")
            _c2, parallel = run_eval(workspace, f"{run}_w4", *track, "--workers", "4")
            self.assert_same_but_workers(serial, parallel, "1", "4")

    def test_a_large_database_takes_one_worker_by_default(self, workspace):
        # grow the file past 256 KiB with free pages, leaving its tables as they are
        path = workspace["db_root"] / "gems" / "gems.sqlite"
        conn = sqlite3.connect(path)
        conn.executescript("CREATE TABLE padding (b BLOB); INSERT INTO padding VALUES (zeroblob(300 * 1024)); "
                           "DROP TABLE padding")
        conn.close()
        assert path.stat().st_size > 256 * 1024
        code, out = run_eval(workspace, "default", "--track", "greedy")
        assert code == 0 and recorded_workers(out) == "1"

    def test_an_explicit_worker_count_wins(self, workspace):
        for workers in ("3", "1"):
            code, out = run_eval(workspace, f"w{workers}", "--track", "greedy", "--workers", workers)
            assert code == 0 and recorded_workers(out) == workers

    def test_default_eval_matches_two_workers(self, workspace):
        for run, track in (
            ("greedy", ("--track", "greedy")),
            ("k8", ("--track", "sql-d1", "--k", "8", "--seed", "1")),
        ):
            _c1, default = run_eval(workspace, f"{run}_default", *track)
            _c2, two = run_eval(workspace, f"{run}_w2", *track, "--workers", "2")
            self.assert_same_but_workers(default, two, "1", "2")

    @pytest.mark.parametrize(("workers", "most"), [("1", 0), ("3", 2)])
    def test_the_calling_thread_is_one_of_the_workers(self, workspace, monkeypatch, workers, most):
        started = []
        start = threading.Thread.start
        monkeypatch.setattr(threading.Thread, "start", lambda thread: started.append(thread) or start(thread))
        code, _out = run_eval(workspace, f"threads{workers}", "--track", "sql-d1", "--k", "3", "--workers", workers)
        assert code == 0 and len(started) <= most

    def test_records_stream_in_item_order_while_items_finish_out_of_order(self, workspace, monkeypatch):
        ids = [item.item_id for item in load_benchmark(str(workspace["benchmark"]), "spider")]
        records_path = workspace["root"] / "order" / "records.jsonl"
        third_done, waited, held_back, streamed = threading.Event(), [], [], []
        run_sql_d1 = cli.run_sql_d1

        def lines():
            return records_path.read_text(encoding="utf-8").splitlines()

        def evaluate(item, *args):
            index = ids.index(item.item_id)
            if index == 0:
                waited.append(third_done.wait(timeout=10))
                held_back.append(len(lines()))  # items 1 and 2 are done, but wait for item 0
            record = run_sql_d1(item, *args)
            if index == 2:
                third_done.set()
            if index == len(ids) - 1:
                # the run is not over until this item returns: a streamed record is on disk before then
                deadline = time.monotonic() + 10
                while len(lines()) < 2 and time.monotonic() < deadline:
                    time.sleep(0.01)
                streamed.append(len(lines()) > 1)
            return record

        monkeypatch.setattr(cli, "run_sql_d1", evaluate)
        code, _out = run_eval(workspace, "order", "--track", "greedy", "--no-retrieval", "--workers", "3")
        assert code == 0 and waited == [True] and held_back == [1] and streamed == [True]
        header, *records = [json.loads(line) for line in lines()]
        assert header["type"] == "run_header" and [r["item_id"] for r in records] == ids

    def test_records_hold_under_many_workers_and_fast_thread_switches(self, workspace, monkeypatch):
        items = [{k: v for k, v in item.items() if k != "question_id"}
                 for item in json.loads(workspace["benchmark"].read_text(encoding="utf-8"))]
        write_benchmark(workspace["benchmark"], items * 10)
        track = ("--track", "greedy", "--no-retrieval")
        evaluated, run_sql_d1 = {}, cli.run_sql_d1
        monkeypatch.setattr(
            cli, "run_sql_d1", lambda item, *args: evaluated.setdefault(item.item_id, run_sql_d1(item, *args))
        )
        _code, serial = run_eval(workspace, "serial", *track, "--workers", "1")
        # the items now return at once, so that records complete close together and race to be written
        monkeypatch.setattr(cli, "run_sql_d1", lambda item, *args: evaluated[item.item_id])
        done = []
        runner = threading.Thread(target=lambda: done.append(run_eval(workspace, "stress", *track, "--workers", "8")))
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            runner.start()
            runner.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not runner.is_alive() and done[0][0] == 0
        self.assert_same_but_workers(serial, done[0][1], "1", "8")

    def test_a_failing_item_stops_the_run(self, workspace, monkeypatch, capsys):
        # item 1's database is missing: its read fails, item 0 is recorded, and no later item runs
        write_benchmark(workspace["benchmark"], [
            {"question": f"q{i}", "db_id": "lost" if i == 1 else "gems", "query": "SELECT COUNT(*) FROM gems"}
            for i in range(5)
        ])
        ran = []
        run_sql_d1 = cli.run_sql_d1
        monkeypatch.setattr(cli, "run_sql_d1", lambda item, *args: ran.append(item.question) or run_sql_d1(item, *args))
        with_fallback(workspace, "SELECT 1")
        code, out = run_eval(workspace, "stopped", "--track", "greedy", "--workers", "1")
        assert code == 2 and ran == ["q0"]
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: database 'lost': no file at ")
        assert len((out / "records.jsonl").read_text(encoding="utf-8").splitlines()) == 2
        assert not (out / "report.json").exists()


class TestBenchSpans:
    def test_install_finds_every_wrapped_name(self):
        # bench/spans.py wraps names where they are looked up; a moved name must fail here
        root = Path(__file__).resolve().parents[1]
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(root / "bench"), str(root / "src")]))
        result = subprocess.run(
            [sys.executable, "-c", "import spans; spans.install()"],
            env=env, capture_output=True, text=True, timeout=120,
        )
        assert result.returncode == 0, result.stderr
