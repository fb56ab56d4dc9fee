"""Workspace state: one record file; keys and certificates derive from the seed."""

import json

import pytest

from provlab.cli import main
from provlab.corpus import build_corpus
from provlab.errors import ProvenanceError
from provlab.records import encode_record
from provlab.workspace import STATE_FILE, T0, Workspace


def _chain(identity):
    return identity.key.public_bytes, [encode_record(cert) for cert in identity.chain]


def _derived(workspace):
    """Everything a loaded workspace must give back, in comparable form."""
    return {
        "anchors": [encode_record(cert) for cert in workspace.trust.anchors],
        "tsa_leaf": _chain(workspace.tsa_leaf),
        "device": _chain(workspace.device),
        "redactor": _chain(workspace.redactor),
        "issued": workspace.signing.issued,
        "revoked": workspace.signing.revoked,
        "crl": encode_record(workspace.signing.generate_crl()),
    }


@pytest.fixture(scope="module", params=[1, 2, 3], ids=lambda seed: f"seed-{seed}")
def built(request, tmp_path_factory):
    workspace = Workspace.initialize(tmp_path_factory.mktemp("ws"), seed=request.param)
    build_corpus(workspace)
    return workspace


def test_init_writes_only_the_state_file(tmp_path):
    Workspace.initialize(tmp_path / "ws", seed=1)
    assert [path.name for path in (tmp_path / "ws").iterdir()] == [STATE_FILE]


def test_load_rederives_the_saving_workspace(built):
    assert 103 in built.signing.revoked  # the corpus revokes the revocable leaf
    assert _derived(Workspace.load(built.root)) == _derived(built)


def test_save_after_load_rewrites_identical_bytes(built):
    path = built.root / STATE_FILE
    before = path.read_bytes()
    Workspace.load(built.root).save()
    assert path.read_bytes() == before


def _text(value) -> str:
    return json.dumps(value, sort_keys=True, indent=2) + "\n"


# name -> (state file text made from the session's seed-1 state value, None
# for no file; a fragment of the error's message)
MALFORMED = {
    "not-json": (lambda v: "{", "cannot load workspace"),
    "array": (lambda v: "[]", "cannot load workspace"),
    "missing-key": (
        lambda v: _text({"seed": v["seed"], "issued": v["issued"]}),
        "cannot load workspace",
    ),
    "text-seed": (lambda v: _text({**v, "seed": "1"}), "expected int"),
    "unsorted-serial": (
        lambda v: _text({**v, "issued": v["issued"][::-1]}),
        "not the form save writes",
    ),
    "repeated-serial": (
        lambda v: _text({**v, "issued": v["issued"] + v["issued"][-1:]}),
        "not the form save writes",
    ),
    "not-indented": (lambda v: json.dumps(v, sort_keys=True), "not the form"),
    "renamed-root": (
        lambda v: _text({**v, "issued": [[1, "rogue root"], *v["issued"][1:]]}),
        "drops or renames serial 1 ",
    ),
    "dropped-device": (
        lambda v: _text({**v, "issued": [e for e in v["issued"] if e[0] != 100]}),
        "drops or renames serial 100 ",
    ),
    "unissued-revocation": (
        lambda v: _text({**v, "revoked": [*v["revoked"], [555, T0]]}),
        "serial 555 was never issued",
    ),
    "missing-file": (lambda v: None, f"cannot load workspace .*{STATE_FILE}"),
}


@pytest.mark.parametrize("case", MALFORMED)
def test_malformed_state_is_refused(case, corpus, tmp_path, capsys):
    make_text, match = MALFORMED[case]
    seed_1 = corpus["workspace"]
    value = json.loads((seed_1.root / STATE_FILE).read_text())
    assert value["revoked"]
    text = make_text(value)
    if text is not None:
        (tmp_path / STATE_FILE).write_text(text)
    with pytest.raises(ProvenanceError, match=match):
        Workspace.load(tmp_path)

    asset = seed_1.corpus_dir / "honest" / "asset.pvl"
    code = main(["--workspace", str(tmp_path), "validate", str(asset)])
    err = capsys.readouterr().err
    assert code == 4
    assert err.startswith("error:") and "Traceback" not in err


@pytest.mark.parametrize("seed", [-1, 2**64], ids=["negative", "past-64-bits"])
def test_init_refuses_a_seed_outside_64_bits(seed, tmp_path, capsys):
    root = tmp_path / "ws"
    code = main(["--workspace", str(root), "init", "--seed", str(seed)])
    err = capsys.readouterr().err
    assert code == 4
    assert err == f"error: workspace seed {seed} is outside 0 .. 2**64-1\n"
    assert not root.exists()


@pytest.mark.parametrize("seed", [-1, 2**64], ids=["negative", "past-64-bits"])
def test_load_refuses_a_seed_outside_64_bits(seed, tmp_path):
    state = json.loads(Workspace(tmp_path, 1)._state_text())
    (tmp_path / STATE_FILE).write_text(_text({**state, "seed": seed}))
    with pytest.raises(ProvenanceError, match=f"seed {seed} is outside"):
        Workspace.load(tmp_path)


def test_the_largest_seed_does_not_alias_another():
    anchors = {
        seed: Workspace("unused", seed).trust.anchors for seed in (0, 1, 2**63, 2**64 - 1)
    }
    assert len(set(anchors.values())) == len(anchors)
