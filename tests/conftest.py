"""Shared fixtures: one seeded workspace with a full corpus per session.

Corpus generation is deterministic but not free (dozens of signatures), so
tests share a session-scoped build.  Tests that need pristine authority
state (the corpus build revokes a serial) construct their own workspace.
"""

import pytest

from provlab.corpus import build_corpus, load_corpus
from provlab.workspace import Workspace

SESSION_SEED = 1


@pytest.fixture(scope="session")
def workspace(tmp_path_factory):
    root = tmp_path_factory.mktemp("ws")
    return Workspace.initialize(root, seed=SESSION_SEED)


@pytest.fixture(scope="session")
def corpus(workspace):
    entries = build_corpus(workspace)
    _, crl = load_corpus(workspace.root)
    return {"entries": entries, "crl": crl, "workspace": workspace}


@pytest.fixture(scope="session")
def corpus_entry(corpus):
    def find(scenario: str, attack: str = "none"):
        for entry in corpus["entries"]:
            if entry.scenario == scenario and entry.attack == attack:
                return entry
        raise LookupError(f"no corpus entry for {scenario!r} / {attack!r}")

    return find


@pytest.fixture(scope="session")
def entry_bytes(corpus):
    def read(entry) -> bytes:
        return (corpus["workspace"].root / entry.path).read_bytes()

    return read
