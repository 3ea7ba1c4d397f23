"""Fixtures shared across test modules."""

import pytest

import repro.rules.registry as registry_module


@pytest.fixture
def fingerprint_calls(monkeypatch):
    """Every document the ruleset registry fingerprints, in call order."""
    calls = []
    real = registry_module.document_fingerprint

    def counting(document):
        calls.append(document)
        return real(document)

    monkeypatch.setattr(registry_module, "document_fingerprint", counting)
    return calls
