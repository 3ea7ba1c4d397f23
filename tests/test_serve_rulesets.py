"""The ``/v1/rulesets`` routes: publish once, point-query forever.

An in-process server exercises the full loop — mine a goal-directed job
over HTTP, publish its result as a ruleset (by job id and by inline
document), then prove ``/match`` and ``/predict`` answer through the
index with exactly the payloads the library-level
:class:`~repro.rules.RuleIndex` computes.  Hostile ids and malformed
bodies must die at the parse layer with a 400, never reach storage.
"""

import json
import threading
import time
import urllib.error
import urllib.request

import pytest

from repro.core import mine_quantitative_rules
from repro.core.export import result_to_document
from repro.data import generate_credit_table
from repro.obs import Observability
from repro.rules import RuleIndex
from repro.serve import (
    ApiError,
    MiningHTTPServer,
    MiningService,
    parse_rule_query,
    parse_ruleset_upload,
)
from repro.table import save_csv

CONFIG = {
    "min_support": 0.15,
    "min_confidence": 0.5,
    "max_support": 0.45,
    "num_partitions": 6,
    "max_itemset_size": 2,
    "interest_level": 1.1,
    "target": "employee_category",
}

RECORD = {"monthly_income": 3000.0, "credit_limit": 5000.0}


@pytest.fixture(scope="module")
def credit_csv(tmp_path_factory):
    path = tmp_path_factory.mktemp("csv") / "credit.csv"
    save_csv(generate_credit_table(300, seed=9), path)
    return path.read_text()


@pytest.fixture(scope="module")
def reference(credit_csv, tmp_path_factory):
    """The same mine run directly — served answers must equal its."""
    from repro.table import load_csv

    path = tmp_path_factory.mktemp("ref") / "credit.csv"
    path.write_text(credit_csv)
    table = load_csv(
        path, categorical=["employee_category", "marital_status"]
    )
    return mine_quantitative_rules(table, **CONFIG)


@pytest.fixture
def server():
    service = MiningService(observability=Observability()).start()
    http_server = MiningHTTPServer(("127.0.0.1", 0), service)
    thread = threading.Thread(
        target=http_server.serve_forever, daemon=True
    )
    thread.start()
    yield http_server
    http_server.shutdown()
    thread.join(timeout=10)
    http_server.server_close()
    service.shutdown(drain_seconds=0)


def request(server, method, path, payload=None):
    req = urllib.request.Request(
        f"{server.url}{path}",
        data=None if payload is None else json.dumps(payload).encode(),
        method=method,
        headers={"Content-Type": "application/json"},
    )
    try:
        with urllib.request.urlopen(req) as resp:
            return resp.status, json.load(resp)
    except urllib.error.HTTPError as exc:
        return exc.code, json.load(exc)


def mine_job(server, credit_csv, job_id="goal-job"):
    status, payload = request(
        server,
        "POST",
        "/v1/jobs",
        {
            "table": {
                "csv": credit_csv,
                "categorical": ["employee_category", "marital_status"],
            },
            "config": CONFIG,
            "job_id": job_id,
        },
    )
    assert status == 201, payload
    deadline = time.monotonic() + 60
    while time.monotonic() < deadline:
        status, payload = request(server, "GET", f"/v1/jobs/{job_id}")
        if payload["status"] in ("completed", "failed"):
            break
        time.sleep(0.2)
    assert payload["status"] == "completed", payload
    return job_id


class TestRulesetRoutes:
    def test_publish_job_then_match_and_predict(
        self, server, credit_csv, reference
    ):
        job_id = mine_job(server, credit_csv)
        status, metadata = request(
            server, "POST", "/v1/rulesets", {"job_id": job_id}
        )
        assert status == 201, metadata
        assert metadata["ruleset_id"] == job_id  # defaults to the job id
        assert metadata["indexed"] is True
        assert metadata["num_rules"] == len(reference.interesting_rules)

        status, listing = request(server, "GET", "/v1/rulesets")
        assert status == 200
        assert [r["ruleset_id"] for r in listing["rulesets"]] == [job_id]

        status, one = request(server, "GET", f"/v1/rulesets/{job_id}")
        assert status == 200 and one == metadata

        index = RuleIndex.from_result(reference)
        expected = index.match(RECORD)
        status, answer = request(
            server,
            "POST",
            f"/v1/rulesets/{job_id}/match",
            {"record": RECORD},
        )
        assert status == 200
        assert answer["num_matches"] == len(expected)
        got = [
            (m["confidence"], m["score"], m["lift"])
            for m in answer["matches"]
        ]
        assert got == [
            (m.rule.confidence, m.score, m.lift) for m in expected
        ]

        prediction = index.predict(RECORD, "employee_category", top=2)
        status, answer = request(
            server,
            "POST",
            f"/v1/rulesets/{job_id}/predict",
            {"record": RECORD, "target": "employee_category", "top": 2},
        )
        assert status == 200
        assert len(answer["matches"]) == len(prediction.matches)
        if prediction.interval is None:
            assert answer["prediction"] is None
        else:
            assert answer["prediction"]["lo"] == prediction.interval[0]
            assert answer["prediction"]["hi"] == prediction.interval[1]
            assert answer["prediction"]["display"] == prediction.display

    def test_inline_document_upload(self, server, reference):
        document = result_to_document(reference)
        status, metadata = request(
            server,
            "POST",
            "/v1/rulesets",
            {"ruleset_id": "inline", "document": document},
        )
        assert status == 201, metadata
        status, answer = request(
            server,
            "POST",
            "/v1/rulesets/inline/match",
            {"record": RECORD, "top": 1},
        )
        assert status == 200 and len(answer["matches"]) <= 1

    def test_queries_never_fingerprint_the_document(
        self, server, reference, fingerprint_calls
    ):
        document = result_to_document(reference)
        status, _ = request(
            server,
            "POST",
            "/v1/rulesets",
            {"ruleset_id": "counted", "document": document},
        )
        assert status == 201 and len(fingerprint_calls) == 1
        for _ in range(3):
            status, _ = request(
                server,
                "POST",
                "/v1/rulesets/counted/predict",
                {"record": RECORD, "target": "employee_category"},
            )
            assert status == 200
        status, _ = request(server, "GET", "/v1/rulesets/counted")
        assert status == 200
        assert len(fingerprint_calls) == 1

    def test_unfinished_job_is_a_409(self, server, credit_csv):
        # A job id that exists but has no result document yet.
        status, _ = request(
            server,
            "POST",
            "/v1/jobs",
            {
                "table": {"csv": credit_csv},
                "config": dict(CONFIG, min_support=0.1),
                "job_id": "slow-job",
            },
        )
        assert status == 201
        status, payload = request(
            server, "POST", "/v1/rulesets", {"job_id": "slow-job"}
        )
        assert status in (409, 201)  # 201 only if it raced to completion

    def test_error_statuses(self, server, reference):
        document = result_to_document(reference)
        request(
            server,
            "POST",
            "/v1/rulesets",
            {"ruleset_id": "errs", "document": document},
        )
        cases = [
            ("GET", "/v1/rulesets/..evil", None, 400),
            ("GET", "/v1/rulesets/absent", None, 404),
            ("POST", "/v1/rulesets", {"job_id": "no-such-job"}, 404),
            ("POST", "/v1/rulesets", {"ruleset_id": "x"}, 400),
            (
                "POST",
                "/v1/rulesets",
                {"ruleset_id": "../up", "document": document},
                400,
            ),
            (
                "POST",
                "/v1/rulesets/errs/match",
                {"record": {"not_an_attribute": 1}},
                400,
            ),
            ("POST", "/v1/rulesets/errs/match", {"record": []}, 400),
            ("POST", "/v1/rulesets/errs/predict", {"record": {}}, 400),
            (
                "POST",
                "/v1/rulesets/errs/predict",
                {"record": {}, "target": "nope"},
                400,
            ),
            (
                "POST",
                "/v1/rulesets/absent/match",
                {"record": {}},
                404,
            ),
            (
                "POST",
                "/v1/rulesets/errs/match",
                {"record": {}, "surprise": 1},
                400,
            ),
        ]
        for method, path, payload, expected in cases:
            status, body = request(server, method, path, payload)
            assert status == expected, (method, path, status, body)


class TestUploadParsing:
    def test_requires_exactly_one_source(self):
        with pytest.raises(ApiError, match="exactly one"):
            parse_ruleset_upload({"ruleset_id": "x"})
        with pytest.raises(ApiError, match="exactly one"):
            parse_ruleset_upload(
                {"ruleset_id": "x", "document": {}, "job_id": "j"}
            )

    def test_ruleset_id_defaults_to_job_id(self):
        parsed = parse_ruleset_upload({"job_id": "job-1"})
        assert parsed == {"job_id": "job-1", "ruleset_id": "job-1"}

    def test_inline_document_requires_explicit_id(self):
        with pytest.raises(ApiError, match="ruleset_id"):
            parse_ruleset_upload({"document": {}})

    def test_unknown_fields_rejected(self):
        with pytest.raises(ApiError, match="unknown"):
            parse_ruleset_upload(
                {"ruleset_id": "x", "document": {}, "extra": 1}
            )


class TestQueryParsing:
    def test_match_rejects_target(self):
        with pytest.raises(ApiError, match="unknown"):
            parse_rule_query({"record": {}, "target": "x"})

    def test_predict_requires_target(self):
        with pytest.raises(ApiError, match="target"):
            parse_rule_query({"record": {}}, require_target=True)

    @pytest.mark.parametrize("top", [0, -1, True, 1.5, "3"])
    def test_bad_top_rejected(self, top):
        with pytest.raises(ApiError, match="top"):
            parse_rule_query({"record": {}, "top": top})

    def test_valid_bodies_normalize(self):
        assert parse_rule_query({"record": {"a": 1}}) == {
            "record": {"a": 1},
            "top": None,
        }
        assert parse_rule_query(
            {"record": {}, "target": "t", "top": 3}, require_target=True
        ) == {"record": {}, "top": 3, "target": "t"}
