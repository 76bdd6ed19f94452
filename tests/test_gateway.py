"""SQL extraction, token accounting, and the scripted/remote backends."""

import functools
import json
import math
import os
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest
import requests
from hypothesis import given, strategies as st

from conftest import RecordingBackend, sql_reply

from nl2sqlbench import cli, gateway
from nl2sqlbench.errors import BackendError, ConfigError
from nl2sqlbench.gateway import (
    Candidate,
    GenerationRequest,
    MockBackend,
    MockRule,
    RemoteBackend,
    count_tokens,
    extract_sql,
    generate,
)

# (raw text, expected extraction) covering the reply format, missing fences,
# double fences, and the fence-free fallback
EXTRACTION_FIXTURES = [
    ("<answer> reasoning ```sql SELECT 1 ``` </answer>", "SELECT 1"),
    ("no code here", None),
    ("```sql\nSELECT a FROM t\n```\ntext\n```sql\nSELECT b FROM u\n```", "SELECT b FROM u"),
    ("<answer>\n-- thinking\n```sql\nSELECT x\nFROM y\nWHERE z = 1;\n```\n</answer>", "SELECT x\nFROM y\nWHERE z = 1"),
    ("```sql\nSELECT 2", "SELECT 2"),  # missing closing fence
    ("The answer is SELECT a FROM t;", "SELECT a FROM t"),  # fence-free fallback
    ("USE with care: WITH w AS (SELECT 1) SELECT * FROM w", "WITH w AS (SELECT 1) SELECT * FROM w"),
    ("<answer>```sql\nSELECT 'in'\n```</answer> later ```sql\nSELECT 'out'\n```", "SELECT 'in'"),
    ("```SQL\nSELECT 3;\n```", "SELECT 3"),  # case-insensitive tag
    ("<answer>\n```sql\n-- comment line\nSELECT 5\n```\n</answer>", "-- comment line\nSELECT 5"),
]


class TestExtractSql:
    @pytest.mark.parametrize("raw,expected", EXTRACTION_FIXTURES)
    def test_fixture_suite(self, raw, expected):
        assert extract_sql(raw) == expected

    def test_suite_is_ten_cases(self):
        assert len(EXTRACTION_FIXTURES) == 10

    def test_empty_text(self):
        assert extract_sql("") is None

    def test_idempotent_after_rewrap(self):
        for raw, _expected in EXTRACTION_FIXTURES:
            out = extract_sql(raw)
            if out is None:
                continue
            assert extract_sql(f"```sql\n{out}\n```") == out

    @given(st.text(max_size=200))
    def test_never_raises_and_rewrap_is_stable(self, raw):
        out = extract_sql(raw)
        if out is not None:
            assert extract_sql(f"```sql\n{out}\n```") == out


class TestCountTokens:
    def test_backend_usage_wins(self):
        assert count_tokens("a b c", backend_usage=2200) == 2200

    def test_empty(self):
        assert count_tokens("", None) == 0

    def test_whitespace_split(self):
        assert count_tokens("SELECT 1 FROM t", None) == 4


class TestGenerationRequest:
    def test_bounds(self):
        with pytest.raises(ConfigError):
            GenerationRequest(prompt="p", num_candidates=0)
        with pytest.raises(ConfigError):
            GenerationRequest(prompt="p", temperature=3.0)


class TestMockBackend:
    def test_scripted_replies_in_order(self):
        rules = [
            MockRule(pattern="the prompt", trajectory_id=i, reply=f"reply {i}") for i in range(3)
        ]
        backend = MockBackend(rules)
        request = GenerationRequest(prompt="this is the prompt", num_candidates=3)
        candidates = generate(request, backend)
        assert [c.raw_text for c in candidates] == ["reply 0", "reply 1", "reply 2"]
        assert [c.trajectory_id for c in candidates] == [0, 1, 2]

    def test_eight_candidates(self):
        backend = MockBackend([MockRule(pattern="", reply=sql_reply("SELECT 1"))])
        candidates = generate(GenerationRequest(prompt="p", num_candidates=8), backend)
        assert len(candidates) == 8
        assert [c.trajectory_id for c in candidates] == list(range(8))
        assert all(c.extracted_sql == "SELECT 1" for c in candidates)

    def test_greedy_single(self):
        backend = MockBackend([MockRule(pattern="", reply=sql_reply("SELECT 2"))])
        candidates = generate(GenerationRequest(prompt="p", temperature=0.0), backend)
        assert len(candidates) == 1

    def test_deterministic_given_prompt(self):
        backend = MockBackend([MockRule(pattern="x", reply=sql_reply("SELECT 9"))])
        request = GenerationRequest(prompt="x marks", num_candidates=4, seed=7)
        first = generate(request, backend)
        second = generate(request, backend)
        assert [c.raw_text for c in first] == [c.raw_text for c in second]
        assert [c.latency_seconds for c in first] == [c.latency_seconds for c in second]

    def test_call_log(self):
        backend = RecordingBackend([MockRule(pattern="", reply="r")])
        generate(GenerationRequest(prompt="p1"), backend)
        generate(GenerationRequest(prompt="p2", num_candidates=2), backend)
        assert len(backend.calls) == 3

    def test_fixture_file_round_trip(self, tmp_path):
        entries = [
            {"pattern": "a", "reply": "ra", "tokens": 12, "latency": 0.5},
            {"pattern": "b", "reply": "rb", "trajectory_id": 1},
        ]
        path = tmp_path / "fixture.json"
        path.write_text(json.dumps(entries))
        backend = MockBackend.from_file(path)
        candidate = generate(GenerationRequest(prompt="has a inside"), backend)[0]
        assert candidate.raw_text == "ra"
        assert candidate.token_count == 12
        assert candidate.tokens_approximate is False
        assert candidate.latency_seconds == 0.5

    def test_fixture_file_validation(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps([{"reply": "no pattern"}]))
        with pytest.raises(ConfigError):
            MockBackend.from_file(path)

    @pytest.mark.parametrize(
        "field, value",
        [
            ("pattern", 5), ("pattern", None), ("reply", ["x"]),
            ("trajectory_id", True), ("trajectory_id", "0"), ("trajectory_id", 1.0),
            ("latency", "0.5"), ("latency", None), ("latency", False),
            ("tokens", 1.5), ("tokens", "40"), ("tokens", True),
            # json reads NaN and Infinity, and a latency or token count below 0 is no cost
            ("latency", math.nan), ("latency", math.inf), ("latency", -math.inf), ("latency", -1),
            ("latency", -0.5), pytest.param("latency", 10**400, id="latency-int_beyond_floats"), ("tokens", -5),
        ],
    )
    def test_rule_of_the_wrong_type_rejected_at_load(self, tmp_path, field, value):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps([{"pattern": "a", "reply": "ok"}, {"pattern": "b", "reply": "rb", field: value}]))
        with pytest.raises(ConfigError, match=f"rule 1: '{field}'"):
            MockBackend.from_file(path)

    def test_rule_with_an_unknown_key_rejected_at_load(self, tmp_path):
        # a misspelt trajectory_id would otherwise leave a rule that answers every trajectory
        path = tmp_path / "bad.json"
        path.write_text(json.dumps([{"pattern": "a", "reply": "ok"}, {"pattern": "b", "reply": "rb", "trajectory": 3}]))
        with pytest.raises(ConfigError, match=r"bad\.json: rule 1: unknown key 'trajectory'$"):
            MockBackend.from_file(path)

    def test_rule_types_accepted_at_their_limits(self, tmp_path):
        path = tmp_path / "fixture.json"
        entries = [
            {"pattern": "", "reply": "", "trajectory_id": None, "latency": 1, "tokens": None},
            {"pattern": "b", "reply": "rb", "trajectory_id": 0, "tokens": 0, "latency": 0},
        ]
        path.write_text(json.dumps(entries))
        rules = MockBackend.from_file(path).rules
        assert [type(r.latency) for r in rules] == [float, float] and rules[0].latency == 1.0


class _ExplodingBackend:
    def complete(self, request, trajectory_id):
        raise BackendError("boom")


class TestGenerateFailures:
    def test_failed_candidates_keep_pool_length(self):
        candidates = generate(GenerationRequest(prompt="p", num_candidates=3), _ExplodingBackend())
        assert len(candidates) == 3
        assert all(c.extracted_sql is None for c in candidates)
        assert all(c.error for c in candidates)


class TestRemoteBackend:
    def test_needs_url(self, monkeypatch):
        monkeypatch.delenv("BACKEND_URL", raising=False)
        with pytest.raises(ConfigError):
            RemoteBackend()

    def test_env_configuration(self, monkeypatch):
        monkeypatch.setenv("BACKEND_URL", "http://example.test/v1/chat/completions")
        monkeypatch.setenv("BACKEND_API_KEY", "secret")
        monkeypatch.setenv("BACKEND_MODEL", "some-model")
        backend = RemoteBackend()
        assert backend.url.endswith("/chat/completions")
        assert backend.model == "some-model"

    def test_backend_params_forwarded_verbatim(self, monkeypatch):
        monkeypatch.setenv("BACKEND_URL", "http://example.test")
        backend = RemoteBackend(model="m")
        request = GenerationRequest(
            prompt="p",
            temperature=0.8,
            max_new_tokens=64,
            backend_params={"block_size": "32", "window_size": "8"},
            seed=5,
        )
        body = backend.build_body(request, trajectory_id=2)
        assert body["block_size"] == "32"
        assert body["window_size"] == "8"
        assert body["temperature"] == 0.8
        assert body["max_tokens"] == 64
        assert body["seed"] == 7  # base seed offset by trajectory
        assert body["messages"] == [{"role": "user", "content": "p"}]


def _response(status: int, text: str = "") -> requests.Response:
    response = requests.Response()
    response.status_code = status
    response._content = json.dumps({"choices": [{"message": {"content": text}}]}).encode()
    return response


class TestRemoteRetries:
    """Retry policy, against a monkeypatched post and sleep: nothing leaves the process."""

    @pytest.fixture()
    def backend(self, monkeypatch):
        backend = RemoteBackend(url="http://backend.test", model="m", workers=5)
        self.posts, self.sleeps, self.status = [], [], 200

        def post(url, **kw):
            self.posts.append(kw)
            return _response(self.status, sql_reply("SELECT 1"))

        monkeypatch.setattr(backend.session, "post", post)
        monkeypatch.setattr(gateway.time, "sleep", self.sleeps.append)
        return backend

    def test_ok_reply_is_one_call(self, backend):
        reply = backend.complete(GenerationRequest(prompt="p"), 0)
        assert extract_sql(reply.text) == "SELECT 1"
        assert len(self.posts) == 1 and self.sleeps == []

    @pytest.mark.parametrize("status", [400, 401, 404, 422])
    def test_client_error_fails_without_retry(self, backend, status):
        self.status = status
        with pytest.raises(BackendError, match=f"HTTP {status}"):
            backend.complete(GenerationRequest(prompt="p"), 0)
        assert len(self.posts) == 1 and self.sleeps == []

    @pytest.mark.parametrize("status", [429, 500, 503])
    def test_throttling_and_server_errors_retry_with_jittered_backoff(self, backend, status):
        self.status = status
        with pytest.raises(BackendError, match="after 2 retries"):
            backend.complete(GenerationRequest(prompt="p"), 0)
        assert len(self.posts) == gateway.RETRIES + 1
        assert len(self.sleeps) == gateway.RETRIES
        for attempt, delay in enumerate(self.sleeps):
            assert 0.5 * 2**attempt <= delay <= 1.5 * 2**attempt

    def test_backoff_is_jittered(self, backend, monkeypatch):
        self.status = 503
        monkeypatch.setattr(gateway.random, "uniform", lambda low, high: low)
        with pytest.raises(BackendError):
            backend.complete(GenerationRequest(prompt="p"), 0)
        assert self.sleeps == [0.5, 1.0]  # the lowest draw halves each exponential step

    def test_transport_error_retries(self, backend, monkeypatch):
        def refuse(url, **kw):
            self.posts.append(kw)
            raise requests.ConnectionError("refused")

        monkeypatch.setattr(backend.session, "post", refuse)
        with pytest.raises(BackendError, match="refused"):
            backend.complete(GenerationRequest(prompt="p"), 0)
        assert len(self.posts) == gateway.RETRIES + 1

    @pytest.mark.parametrize(
        "reply",
        [
            {"choices": [{"message": {"content": sql_reply("SELECT 1")}}], "usage": {"completion_tokens": "n/a"}},
            {"choices": [{"message": {"content": sql_reply("SELECT 1")}}], "usage": {"completion_tokens": -3}},
            {"choices": [{"message": {"content": [{"type": "text", "text": sql_reply("SELECT 1")}]}}]},
        ],
        ids=["usage_not_an_integer", "usage_negative", "content_parts"],
    )
    def test_a_malformed_reply_is_retried_then_fails_its_trajectory(self, backend, monkeypatch, reply):
        def post(url, **kw):
            self.posts.append(kw)
            response = requests.Response()
            response.status_code, response._content = 200, json.dumps(reply).encode()
            return response

        monkeypatch.setattr(backend.session, "post", post)
        candidate, = generate(GenerationRequest(prompt="p"), backend)
        assert len(self.posts) == gateway.RETRIES + 1 and len(self.sleeps) == gateway.RETRIES
        assert candidate.failed and candidate.token_count == 0
        assert candidate.error.startswith("no usable reply after 2 retries: malformed reply: ")

    def test_generated_tokens_come_from_completion_tokens_only(self, backend, monkeypatch):
        # total_tokens counts the prompt too, so a reply without completion_tokens gets the whitespace count
        text = sql_reply("SELECT 1")
        reply = {"choices": [{"message": {"content": text}}], "usage": {"prompt_tokens": 1400, "total_tokens": 1402}}

        def post(url, **kw):
            response = requests.Response()
            response.status_code, response._content = 200, json.dumps(reply).encode()
            return response

        monkeypatch.setattr(backend.session, "post", post)
        candidate, = generate(GenerationRequest(prompt="p"), backend)
        assert (candidate.token_count, candidate.tokens_approximate) == (len(text.split()), True)
        reply["usage"]["completion_tokens"] = 2
        candidate, = generate(GenerationRequest(prompt="p"), backend)
        assert (candidate.token_count, candidate.tokens_approximate) == (2, False)

    def test_session_pool_matches_concurrency_cap(self, backend):
        for scheme in ("http://", "https://"):
            assert backend.session.get_adapter(scheme + "backend.test")._pool_maxsize == 5

    def test_requests_imported_only_by_a_remote_backend(self):
        src = Path(__file__).resolve().parents[1] / "src"
        code = (
            "import sys; from nl2sqlbench import cli; assert 'requests' not in sys.modules; "
            "cli.RemoteBackend(url='http://backend.test'); assert 'requests' in sys.modules"
        )
        env = dict(os.environ, PYTHONPATH=str(src))
        result = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60)
        assert result.returncode == 0, result.stderr


class TestConcurrency:
    def test_remote_calls_run_in_order_on_the_calling_thread(self, monkeypatch):
        # an item's k calls, and a verifier repair's one, run on the item's worker: --workers caps requests in flight
        backend = RemoteBackend(url="http://backend.test")
        lock, in_flight, peak, callers = threading.Lock(), [0], [0], set()

        def post(url, json, **kw):
            with lock:
                in_flight[0] += 1
                peak[0] = max(peak[0], in_flight[0])
                callers.add(threading.current_thread())
            with lock:
                in_flight[0] -= 1
            return _response(200, sql_reply(f"SELECT {json['seed']}"))

        monkeypatch.setattr(backend.session, "post", post)
        candidates = generate(GenerationRequest(prompt="p", num_candidates=16, seed=7), backend)
        assert [c.trajectory_id for c in candidates] == list(range(16))
        assert [c.extracted_sql for c in candidates] == [f"SELECT {7 + i}" for i in range(16)]
        candidate, = generate(GenerationRequest(prompt="p", temperature=0.0, seed=7), backend)
        assert candidate.extracted_sql == "SELECT 7"
        assert peak[0] == 1 and callers == {threading.current_thread()}

    @staticmethod
    def _gated_post(backend, monkeypatch, cap):
        """Stub ``post``: each call waits until ``cap`` are in flight, and records its thread and the peak."""
        lock, full = threading.Lock(), threading.Event()
        in_flight, peak, posts = [0], [0], []

        def post(url, json, **kw):
            with lock:
                in_flight[0] += 1
                peak[0] = max(peak[0], in_flight[0])
                posts.append((threading.current_thread(), json["seed"]))
                if in_flight[0] == cap:
                    full.set()
            full.wait(timeout=2)
            time.sleep(0.005)
            with lock:
                in_flight[0] -= 1
            return _response(200, sql_reply(f"SELECT {json['seed']}"))

        monkeypatch.setattr(backend.session, "post", post)
        return peak, posts

    def test_remote_in_flight_capped_by_its_pool(self, monkeypatch):
        # the pool is eval's: each worker runs one item's k calls in order, so --workers caps requests in flight
        backend = RemoteBackend(url="http://backend.test", workers=3)
        peak, posts = self._gated_post(backend, monkeypatch, 3)
        results, runners = {}, {}

        def item(index):
            runners[index] = threading.current_thread()
            results[index] = generate(GenerationRequest(prompt="p", num_candidates=4, seed=10 * index), backend)

        cli._drain([functools.partial(item, index) for index in range(6)], 3)
        assert peak[0] == 3
        assert len({thread for thread, _ in posts}) == 3
        for index, candidates in results.items():
            assert [c.extracted_sql for c in candidates] == [f"SELECT {10 * index + i}" for i in range(4)]
            assert [seed for thread, seed in posts if thread is runners[index]] == [
                seed for i, thread in runners.items() if thread is runners[index] for seed in range(10 * i, 10 * i + 4)
            ]

    def test_single_remote_call_runs_on_the_pool(self, monkeypatch):
        # verifier repairs are k=1 generate calls: they run on their item's worker and count against the same cap
        backend = RemoteBackend(url="http://backend.test", workers=2)
        peak, posts = self._gated_post(backend, monkeypatch, 2)
        runners, repairs = {}, {}

        def repair(index):
            runners[index] = threading.current_thread()
            repairs[index] = generate(GenerationRequest(prompt="p", temperature=0.0, seed=index), backend)

        cli._drain([functools.partial(repair, index) for index in range(4)], 2)
        assert peak[0] == 2
        assert {index: [c.extracted_sql for c in pool] for index, pool in repairs.items()} == {
            index: [f"SELECT {index}"] for index in range(4)
        }
        assert sorted(seed for _, seed in posts) == list(range(4))
        assert all(thread is runners[seed] for thread, seed in posts)

    def test_mock_runs_inline_without_threads(self, monkeypatch):
        backend = RecordingBackend([MockRule(pattern="p", trajectory_id=i, reply=f"SELECT {i}") for i in range(8)])
        started, start = [], threading.Thread.start
        monkeypatch.setattr(threading.Thread, "start", lambda thread: started.append(thread) or start(thread))
        candidates = generate(GenerationRequest(prompt="p", num_candidates=8), backend)
        assert started == []
        assert [c.extracted_sql for c in candidates] == [f"SELECT {i}" for i in range(8)]
        assert backend.calls == [("p", i) for i in range(8)]  # trajectory order


class TestCandidate:
    def test_failed_property(self):
        ok = Candidate(0, "t", "SELECT 1", 0.0, 1)
        bad = Candidate(1, "t", None, 0.0, 1)
        assert not ok.failed and bad.failed
