"""Uniform access to generation backends plus SQL extraction from raw output.

Two backends share one interface: a remote chat-completions service (for real
model serving engines) and a table-driven mock scripted from a fixture file
(for hermetic runs and tests). Extra backend parameters are forwarded into
the request body untouched, so engine-specific knobs such as diffusion block
or window sizes pass through without the harness interpreting them.

Concurrency: eval items run on the CLI's ``--workers`` workers, the calling
thread and ``--workers`` - 1 pool threads. ``generate`` runs an item's
trajectories in trajectory order on the thread that calls it, and so does a
verifier repair, for every backend. So a remote run has at most
``--workers`` requests in flight, and a call that is retrying holds its
item's worker through its backoff.
"""

from __future__ import annotations

import json
import logging
import os
import random
import re
import sys
import time
# unused here: bench/spans.py swaps this name for its context-carrying pool, and its install() raises without it
from concurrent.futures import ThreadPoolExecutor  # noqa: F401
from dataclasses import dataclass, field, fields
from pathlib import Path

from .errors import BackendError, ConfigError

logger = logging.getLogger(__name__)

DEFAULT_TEMPERATURE = 0.8  # sampling default; greedy forces 0
DEFAULT_MAX_NEW_TOKENS = 2048
# the remote backend's request timeout, and its retries after a first failed attempt
REQUEST_TIMEOUT_SECONDS = 120.0
RETRIES = 2


@dataclass(frozen=True)
class GenerationRequest:
    prompt: str
    temperature: float = DEFAULT_TEMPERATURE
    max_new_tokens: int = DEFAULT_MAX_NEW_TOKENS
    num_candidates: int = 1
    backend_params: dict = field(default_factory=dict)
    seed: int | None = None

    def __post_init__(self):
        if self.num_candidates < 1:
            raise ConfigError("num_candidates must be at least 1")
        if not 0.0 <= self.temperature <= 2.0:
            raise ConfigError("temperature must be within [0, 2]")


@dataclass
class Candidate:
    trajectory_id: int
    raw_text: str
    extracted_sql: str | None
    latency_seconds: float
    token_count: int
    tokens_approximate: bool = False
    error: str | None = None

    @property
    def failed(self) -> bool:
        return self.extracted_sql is None


@dataclass
class BackendReply:
    text: str
    usage_tokens: int | None
    latency_seconds: float


def count_tokens(raw_text: str, backend_usage: int | None = None) -> int:
    """Backend-reported usage when available, else a whitespace-split approximation."""
    if backend_usage is not None:
        return backend_usage
    return len(raw_text.split())


_ANSWER_RE = re.compile(r"<answer>(.*?)(?:</answer>|$)", re.IGNORECASE | re.DOTALL)
_FENCE_RE = re.compile(r"```sql\b[ \t]*\r?\n?(.*?)(?:```|$)", re.IGNORECASE | re.DOTALL)


def extract_sql(raw_text: str) -> str | None:
    """Pull the SQL statement out of a raw model reply.

    Preference order: the last ```sql fence inside the <answer> section, then
    the last ```sql fence anywhere, then the suffix starting at the first
    top-level SELECT/WITH keyword. Returns None when nothing SQL-like exists.
    """
    if not raw_text:
        return None
    answer_sections = _ANSWER_RE.findall(raw_text)
    search_spaces = [answer_sections[-1]] if answer_sections else []
    search_spaces.append(raw_text)
    for space in search_spaces:
        fences = _FENCE_RE.findall(space)
        if fences:
            return _clean_sql(fences[-1])
    fallback = _select_suffix(raw_text)
    if fallback:
        return _clean_sql(fallback)
    return None


def _clean_sql(text: str) -> str | None:
    cleaned = text.strip()
    cleaned = re.sub(r"```\s*$", "", cleaned).strip()
    cleaned = cleaned.rstrip(";").strip()
    return cleaned or None


_CTE_HEAD = re.compile(r"WITH\s+(?:RECURSIVE\s+)?\w+(?:\s*\([^)]*\))?\s+AS\s*\(", re.IGNORECASE)


def _select_suffix(text: str) -> str | None:
    stripped = re.sub(r"'(?:[^']|'')*'", lambda m: " " * len(m.group(0)), text)
    depth = 0
    for match in re.finditer(r"[()]|\b(?:SELECT|WITH)\b", stripped, flags=re.IGNORECASE):
        token = match.group(0)
        if token == "(":
            depth += 1
        elif token == ")":
            depth = max(0, depth - 1)
        elif depth == 0:
            # prose uses "with" freely, so WITH only counts as a CTE head
            if token.upper() == "WITH" and not _CTE_HEAD.match(stripped, match.start()):
                continue
            return text[match.start():]
    return None


# ---------------------------------------------------------------------------
# Backends


@dataclass
class MockRule:
    pattern: str
    reply: str
    trajectory_id: int | None = None
    latency: float = 0.0
    tokens: int | None = None

    def __post_init__(self):
        """Reject a malformed rule when it is made, so a bad fixture fails at load rather than in a worker."""
        for name in ("pattern", "reply"):
            value = getattr(self, name)
            if not isinstance(value, str):
                raise ConfigError(f"{name!r} must be a string, not {value!r}")
        for name in ("trajectory_id", "tokens"):
            value = getattr(self, name)
            if value is not None and type(value) is not int:  # bool is rejected too
                raise ConfigError(f"{name!r} must be an integer or null, not {value!r}")
        if self.tokens is not None and self.tokens < 0:
            raise ConfigError(f"'tokens' must not be negative, not {self.tokens!r}")
        if isinstance(self.latency, bool) or not isinstance(self.latency, (int, float)):
            raise ConfigError(f"'latency' must be a number, not {self.latency!r}")
        # written so that NaN fails too: json reads NaN and Infinity, which would reach the report
        if not 0 <= self.latency <= sys.float_info.max:
            raise ConfigError(f"'latency' must be finite and not negative, not {self.latency!r}")
        self.latency = float(self.latency)

    def matches(self, prompt: str, trajectory_id: int) -> bool:
        if self.trajectory_id is not None and self.trajectory_id != trajectory_id:
            return False
        return self.pattern in prompt


class MockBackend:
    """Table-driven scripted backend; first matching rule wins.

    Fully deterministic given the prompt: replies, latencies, and token
    counts come from the fixture, so end-to-end runs are reproducible
    byte-for-byte. It keeps no state between calls. A prompt that no rule
    matches gets an empty reply; a rule with pattern ``""`` matches every
    prompt, so a fixture that ends with one sets its own fallback.
    """

    def __init__(self, rules: list[MockRule] | None = None):
        self.rules = list(rules or [])

    @classmethod
    def from_file(cls, path) -> "MockBackend":
        try:
            entries = json.loads(Path(path).read_text(encoding="utf-8"))
        except (ValueError, RecursionError) as exc:  # a JSONDecodeError, bytes that are not UTF-8, or nesting too deep
            raise ConfigError(f"{path}: not valid JSON: {exc}") from exc
        if not isinstance(entries, list):
            raise ConfigError(f"{path}: mock fixture must be an array of rules")
        rules = []
        known = {f.name for f in fields(MockRule)}
        for idx, entry in enumerate(entries):
            if not isinstance(entry, dict) or "pattern" not in entry or "reply" not in entry:
                raise ConfigError(f"{path}: rule {idx} must be an object with 'pattern' and 'reply'")
            # a misspelt key would otherwise leave its field at the default: a rule for every trajectory, say
            unknown = sorted(entry.keys() - known)
            if unknown:
                raise ConfigError(f"{path}: rule {idx}: unknown key {unknown[0]!r}")
            try:
                rules.append(MockRule(**entry))
            except ConfigError as exc:
                raise ConfigError(f"{path}: rule {idx}: {exc}") from exc
        return cls(rules)

    def complete(self, request: GenerationRequest, trajectory_id: int) -> BackendReply:
        for rule in self.rules:
            if rule.matches(request.prompt, trajectory_id):
                return BackendReply(rule.reply, rule.tokens, rule.latency)
        return BackendReply("", None, 0.0)


class RemoteBackend:
    """Chat-completions client with retries and jittered backoff; its session keeps a connection per worker."""

    def __init__(self, url: str | None = None, model: str | None = None, workers: int = 1):
        import requests  # only remote runs pay for the import

        self.url = url or os.environ.get("BACKEND_URL")
        self.api_key = os.environ.get("BACKEND_API_KEY")
        self.model = model or os.environ.get("BACKEND_MODEL")
        if not self.url:
            raise ConfigError("remote backend needs a URL (flag or BACKEND_URL)")
        self.session = requests.Session()
        adapter = requests.adapters.HTTPAdapter(pool_maxsize=workers)
        self.session.mount("http://", adapter)
        self.session.mount("https://", adapter)

    # the body fields that build_body sets; a backend parameter may not name one, or the manifest would record a
    # value that the server never saw
    BODY_FIELDS = frozenset({"model", "messages", "temperature", "max_tokens", "n", "seed"})

    def build_body(self, request: GenerationRequest, trajectory_id: int) -> dict:
        body = {
            "model": self.model,
            "messages": [{"role": "user", "content": request.prompt}],
            "temperature": request.temperature,
            "max_tokens": request.max_new_tokens,
            "n": 1,
        }
        if request.seed is not None:
            body["seed"] = request.seed + trajectory_id
        body.update(request.backend_params)  # opaque pass-through, never interpreted
        return body

    def complete(self, request: GenerationRequest, trajectory_id: int) -> BackendReply:
        body = self.build_body(request, trajectory_id)
        headers = {"Content-Type": "application/json"}
        if self.api_key:
            headers["Authorization"] = f"Bearer {self.api_key}"
        last_error: Exception | None = None
        for attempt in range(RETRIES + 1):
            start = time.monotonic()
            try:
                response = self.session.post(self.url, json=body, headers=headers, timeout=REQUEST_TIMEOUT_SECONDS)
                if 400 <= response.status_code < 500 and response.status_code != 429:
                    # the request itself is wrong: a retry cannot help
                    raise BackendError(f"backend rejected the request: HTTP {response.status_code}")
                response.raise_for_status()
                payload = response.json()
                text = payload["choices"][0]["message"]["content"]
                usage = payload.get("usage") or {}
                # total_tokens counts the prompt too, so without completion_tokens the count is approximated
                tokens = usage.get("completion_tokens")
                # a field of the wrong type is retried like bad JSON, rather than failing the item where it is read
                bad_usage = tokens is not None and (type(tokens) is not int or tokens < 0)
                if bad_usage or not isinstance(text, (str, type(None))):
                    raise ValueError(f"malformed reply: content {text!r:.80}, usage {tokens!r:.80}")
                return BackendReply(text or "", tokens, time.monotonic() - start)
            except BackendError:
                raise
            except Exception as exc:  # noqa: BLE001 - transport errors vary by stack; also 429, 5xx, bad JSON
                last_error = exc
            if attempt < RETRIES:  # jittered exponential backoff, on the calling thread
                time.sleep(2**attempt * random.uniform(0.5, 1.5))
        raise BackendError(f"no usable reply after {RETRIES} retries: {last_error}")


def generate(request: GenerationRequest, backend) -> list[Candidate]:
    """Produce exactly num_candidates candidates, extraction applied to each.

    Per-candidate transport failures become failed candidates (empty text, no
    extracted SQL, error message attached) so the pool length is always
    num_candidates and the run continues. Trajectories run on the calling
    thread, in trajectory order.
    """

    def one(trajectory_id: int) -> Candidate:
        start = time.monotonic()
        try:
            reply = backend.complete(request, trajectory_id)
        except BackendError as exc:
            logger.warning("trajectory %d failed: %s", trajectory_id, exc)
            return Candidate(
                trajectory_id=trajectory_id,
                raw_text="",
                extracted_sql=None,
                latency_seconds=time.monotonic() - start,
                token_count=0,
                error=str(exc),
            )
        return Candidate(
            trajectory_id=trajectory_id,
            raw_text=reply.text,
            extracted_sql=extract_sql(reply.text),
            latency_seconds=reply.latency_seconds,
            token_count=count_tokens(reply.text, reply.usage_tokens),
            tokens_approximate=reply.usage_tokens is None,
        )

    return [one(trajectory_id) for trajectory_id in range(request.num_candidates)]
