#!/usr/bin/env python
"""CI smoke test for the rule-serving subsystem, end to end.

Drives the whole goal-directed fit/predict loop the way a user would:

1. generate a synthetic credit CSV and mine it **goal-directed**
   (``quantrules mine --target``) to an exported rules document;
2. check the goal-directed run against a full in-process mine filtered
   to the target consequent (must be identical rules, strictly fewer
   candidates);
3. boot a real ``quantrules serve`` subprocess, upload the document via
   ``POST /v1/rulesets``, and list/describe it back;
4. hit ``POST /v1/rulesets/{id}/match`` and ``.../predict`` with a
   probe record, twice each — the fired-rule lists must be
   deterministic across requests and bit-identical to what a local
   linear-scan :class:`~repro.rules.RuleIndex` answers from the same
   document (columnar-vs-scan equivalence over the wire);
5. confirm ``quantrules predict`` (offline CLI) agrees with the served
   answer, bad ruleset ids 400 (no path traversal), and the
   ``/metrics`` snapshot counted the queries;
6. re-upload different content under the same id and check that
   ``GET /v1/rulesets/{id}`` and a second predict serve the new
   content (the registry's stored-fingerprint refresh path).

Exit status 0 on success, 1 with a diagnostic otherwise.  Run from the
repository root::

    python tools/smoke_rule_serving.py
"""

import json
import os
import signal
import subprocess
import sys
import tempfile
import urllib.error
import urllib.request
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

NUM_RECORDS = 800
TARGET = "employee_category"
CONFIG = {
    "min_support": 0.25,
    "min_confidence": 0.4,
    "max_support": 0.5,
    "partial_completeness": 5.0,
    "max_itemset_size": 3,
}
MINE_ARGS = [
    "--min-support", "0.25", "--min-confidence", "0.4",
    "--max-support", "0.5", "--completeness", "5",
    "--max-itemset-size", "3", "--limit", "0",
]
PROBE = {"monthly_income": 2500.0, "credit_limit": 4000.0}


def fail(message: str) -> "NoReturn":  # noqa: F821
    print(f"smoke_rule_serving: FAIL: {message}", file=sys.stderr)
    sys.exit(1)


def run_cli(*args):
    env = dict(os.environ)
    env["PYTHONPATH"] = (
        str(ROOT / "src") + os.pathsep + env.get("PYTHONPATH", "")
    )
    return subprocess.run(
        [sys.executable, "-m", "repro.cli", *args],
        env=env,
        capture_output=True,
        text=True,
    )


def http_json(method: str, url: str, payload=None):
    body = None if payload is None else json.dumps(payload).encode()
    request = urllib.request.Request(url, data=body, method=method)
    with urllib.request.urlopen(request, timeout=30) as response:
        return json.load(response)


def start_server(store_dir: Path):
    env = dict(os.environ)
    env["PYTHONPATH"] = (
        str(ROOT / "src") + os.pathsep + env.get("PYTHONPATH", "")
    )
    process = subprocess.Popen(
        [
            sys.executable, "-m", "repro.cli", "serve",
            "--port", "0", "--jobs", "1",
            "--store-dir", str(store_dir),
            "--drain-seconds", "60",
        ],
        env=env,
        stdout=subprocess.PIPE,
        text=True,
    )
    line = process.stdout.readline()
    if not line.startswith("serving on "):
        process.kill()
        fail(f"unexpected server banner: {line!r}")
    return process, line.split("serving on ", 1)[1].strip()


def main() -> int:
    from repro.core import mine_quantitative_rules
    from repro.rules import RuleIndex, filter_rules_to_target
    from repro.table import load_csv

    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        csv_path = tmp / "credit.csv"
        rules_path = tmp / "rules.json"

        generated = run_cli(
            "generate", str(csv_path),
            "--records", str(NUM_RECORDS), "--seed", "7",
        )
        if generated.returncode != 0:
            fail(f"generate failed: {generated.stderr}")

        # 1-2: goal-directed CLI mine == full mine filtered to target,
        # with strictly fewer candidates counted.
        mined = run_cli(
            "mine", str(csv_path), "--target", TARGET,
            "--save-json", str(rules_path), *MINE_ARGS,
        )
        if mined.returncode != 0:
            fail(f"mine --target failed: {mined.stderr}")
        document = json.loads(rules_path.read_text())
        if not document.get("attributes"):
            fail("exported document carries no 'attributes' section")

        table = load_csv(csv_path)
        full = mine_quantitative_rules(table, **CONFIG)
        goal = mine_quantitative_rules(table, target=TARGET, **CONFIG)
        expected = filter_rules_to_target(
            full.interesting_rules, table.schema.index_of(TARGET)
        )
        if goal.interesting_rules != expected:
            fail("goal-directed rules differ from filtered full mine")
        if not expected:
            fail("degenerate workload: no rules conclude on the target")
        if goal.stats.total_candidates >= full.stats.total_candidates:
            fail(
                "goal-directed counted no fewer candidates "
                f"({goal.stats.total_candidates} vs "
                f"{full.stats.total_candidates})"
            )
        print(
            f"smoke_rule_serving: goal-directed == filtered full mine "
            f"({len(expected)} rules, "
            f"{goal.stats.total_candidates}/"
            f"{full.stats.total_candidates} candidates)"
        )

        # Local reference answers, from the document alone, linear scan.
        reference = RuleIndex.from_document(document, use_index=False)

        process, base = start_server(tmp / "store")
        try:
            # 3: upload + list + describe.
            metadata = http_json(
                "POST",
                f"{base}/v1/rulesets",
                {"ruleset_id": "credit-goal", "document": document},
            )
            if metadata["num_rules"] != reference.num_rules:
                fail(f"upload metadata wrong: {metadata}")
            if not metadata["indexed"]:
                fail("server did not build the columnar rule index")
            listing = http_json("GET", f"{base}/v1/rulesets")
            ids = [r["ruleset_id"] for r in listing["rulesets"]]
            if ids != ["credit-goal"]:
                fail(f"listing wrong: {listing}")
            described = http_json(
                "GET", f"{base}/v1/rulesets/credit-goal"
            )
            if described != metadata:
                fail(f"describe != upload metadata: {described}")
            print(
                f"smoke_rule_serving: uploaded ruleset "
                f"({metadata['num_rules']} rules, indexed)"
            )

            # 4: match + predict, twice each, deterministic and equal
            # to the local linear scan.
            match_url = f"{base}/v1/rulesets/credit-goal/match"
            first = http_json("POST", match_url, {"record": PROBE})
            second = http_json("POST", match_url, {"record": PROBE})
            if first != second:
                fail("match answers differ across identical requests")
            local = reference.match(PROBE)
            if first["num_matches"] != len(local):
                fail(
                    f"served {first['num_matches']} matches, linear "
                    f"scan fired {len(local)}"
                )
            served_conf = [m["confidence"] for m in first["matches"]]
            if served_conf != [m.rule.confidence for m in local]:
                fail("served match ranking differs from linear scan")

            predict_url = f"{base}/v1/rulesets/credit-goal/predict"
            predicted = http_json(
                "POST", predict_url, {"record": PROBE, "target": TARGET}
            )
            if predicted != http_json(
                "POST", predict_url, {"record": PROBE, "target": TARGET}
            ):
                fail("predict answers differ across identical requests")
            local_prediction = reference.predict(PROBE, TARGET)
            served = predicted["prediction"]
            if (served is None) != (local_prediction.interval is None):
                fail(f"prediction presence differs: {predicted}")
            if served is not None and (
                (served["lo"], served["hi"]) != local_prediction.interval
                or served["confidence"] != local_prediction.confidence
            ):
                fail(f"prediction differs from linear scan: {served}")
            print(
                f"smoke_rule_serving: match x2 + predict x2 "
                f"deterministic, {first['num_matches']} fired, "
                f"prediction={served and served['display']!r}"
            )

            # 5a: offline CLI predict agrees with the served answer.
            offline = run_cli(
                "predict", str(rules_path),
                "--record", json.dumps(PROBE), "--target", TARGET,
            )
            if offline.returncode != 0:
                fail(f"CLI predict failed: {offline.stderr}")
            if json.loads(offline.stdout)["prediction"] != served:
                fail("CLI predict disagrees with the served prediction")

            # 5b: hostile ruleset ids are rejected, not resolved.
            bad = urllib.request.Request(
                f"{base}/v1/rulesets/..%2Fescape", method="GET"
            )
            try:
                urllib.request.urlopen(bad, timeout=30)
                fail("traversal-shaped ruleset id was accepted")
            except urllib.error.HTTPError as error:
                if error.code != 400:
                    fail(f"traversal id got {error.code}, want 400")

            # 5c: the queries were counted (labeled counters render as
            # 'rules.queries{...}' keys in the JSON snapshot).
            snapshot = http_json("GET", f"{base}/metrics")
            queries = sum(
                count
                for name, count in snapshot["counters"].items()
                if name.startswith("rules.queries")
            )
            if queries < 4:
                fail(f"rules.queries counted {queries}, want >= 4")
            print("smoke_rule_serving: CLI parity + metrics validated")

            # 6: re-upload under the same id; describe and predict must
            # serve the new content, not the first upload's.
            refreshed = dict(document, rules=document["rules"][:2])
            updated = http_json(
                "POST",
                f"{base}/v1/rulesets",
                {"ruleset_id": "credit-goal", "document": refreshed},
            )
            if updated["num_rules"] != 2 or (
                updated["fingerprint"] == metadata["fingerprint"]
            ):
                fail(f"re-upload metadata wrong: {updated}")
            described = http_json(
                "GET", f"{base}/v1/rulesets/credit-goal"
            )
            if described != updated:
                fail(f"describe after re-upload is stale: {described}")
            repredicted = http_json(
                "POST", predict_url, {"record": PROBE, "target": TARGET}
            )
            local = RuleIndex.from_document(refreshed, use_index=False)
            expected = local.predict(PROBE, TARGET)
            if len(repredicted["matches"]) != len(expected.matches) or [
                m["confidence"] for m in repredicted["matches"]
            ] != [m.rule.confidence for m in expected.matches]:
                fail(f"predict after re-upload is stale: {repredicted}")
            print(
                "smoke_rule_serving: re-upload under the same id served "
                f"({len(expected.matches)} target matches)"
            )
        finally:
            process.send_signal(signal.SIGTERM)
            code = process.wait(timeout=120)
        if code != 0:
            fail(f"server exited {code} on SIGTERM")
        print("smoke_rule_serving: OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
