#!/usr/bin/env python3
"""provlab benchmark: three workloads driven through provlab's public API.

    python3 perfbench/run.py --workload corpus-mix --seed 1 --seconds 30 --trace 0

Run it from the root of a provlab checkout; the package is imported from
``src/`` beside this directory.  The last line of standard output is one JSON
object: ``correct``, ``attempted``, ``failed`` and ``metrics``.  With
``--trace 0`` the metrics are the end-to-end ones, from untraced ops; with
``--trace 1`` the same work runs under the span tracer and the metrics are
the per-layer ones.  See README.md in this directory for what each workload
does, how each metric is defined on it, and reference figures.

A run does a fixed amount of work for a given ``--seconds``: a whole number
of rounds, each made of the same operations, so that the ops attempted and
failed are identical for every seed.  Every input derives from ``--seed``;
provlab receives only the generated inputs.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import math
import os
import random
import resource
import shutil
import statistics
import struct
import sys
import time
import tracemalloc
from collections import defaultdict
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK_DIR = BENCH_DIR / ".work"
SPAN_DIR = BENCH_DIR / ".spans"

MIB = 2**20
SETUP_REPEATS = 7
WARMUP_ROUNDS = 1

# Rounds per second of --seconds, so that a run on the reference machine
# (README) measures for about --seconds.  The count depends on --seconds
# only, never on the seed or on the clock.
ROUNDS_PER_SECOND = {"corpus-mix": 3.2, "large-asset": 0.75, "online-status": 1.5}

# corpus-mix: seeded image/metadata/header/trailer bytes changed per
# hardened-ACCEPTED asset, on top of every framing byte
TAMPER_PAYLOAD_BYTES = 16
# online-status: seeded payload bytes changed per hardened-ACCEPTED asset
STATUS_TAMPER_BYTES = 8

LARGE_IMAGE_BYTES = 64 * MIB
LARGE_FRESH_BLOCK = 4096
LARGE_SCENARIO = "bound-timestamp"

# wire format constants, from the container format's documentation
WIRE_MAGIC = b"PVL1"
WIRE_MANIFEST_KIND = 4

ACCEPTED = ("ACCEPTED", "ACCEPTED_WITH_REDACTION")


def _import_provlab():
    if not (SRC / "provlab" / "__init__.py").is_file():
        sys.exit(f"error: provlab sources not found under {SRC}; run from a provlab checkout")
    sys.path.insert(0, str(SRC))
    global attacks, cli, container, corpus, credentials, signer, statusservice
    global timestamp, trust, validator, workspace
    from provlab import (  # noqa: F401  (bound as module globals)
        attacks,
        cli,
        container,
        corpus,
        credentials,
        signer,
        statusservice,
        timestamp,
        trust,
        validator,
        workspace,
    )


# ---------------------------------------------------------------------------
# speed calibration
# ---------------------------------------------------------------------------

# The reference machine's speed drifts by ±25% over tens of seconds (other
# tenants share its cores), which moves every timing of a 30-second run
# together.  So the benchmark times a fixed stdlib task between rounds and
# reports each round's times scaled to the speed at which that task takes
# its reference time; the unscaled figures are printed too.  The tasks run
# no provlab code, so no change to provlab can move them.  The compute task
# (Python bytecode and small hashes, like the codec and Ed25519 work of small
# assets) calibrates corpus-mix and online-status; the memory task (fresh
# buffers, copies and a long hash, like a 64 MiB asset) calibrates
# large-asset.
_CALIBRATION_BLOCK = bytes(range(256)) * 512  # 128 KiB


def _compute_task() -> None:
    parts = []
    for i in range(300):
        record = {"label": f"seg{i}", "length": i * 7, "flags": (i & 3, i >> 2)}
        head = struct.pack(">BI", len(record["label"]), record["length"])
        parts.append(head + record["label"].encode("ascii") + bytes(record["flags"]))
        parts.append(hashlib.sha256(head).digest())
    digest = hashlib.sha256(b"".join(sorted(parts)))
    digest.update(bytes(_CALIBRATION_BLOCK))


def _memory_task() -> None:
    buffer = _CALIBRATION_BLOCK * 64  # 8 MiB, freshly allocated
    copy = buffer[1:]
    hashlib.sha256(copy)


CALIBRATION_TASKS = {"compute": (_compute_task, 0.001), "memory": (_memory_task, 0.02)}


def calibrate(task: str) -> float:
    """Seconds the calibration task takes now (median of three)."""
    fn = CALIBRATION_TASKS[task][0]
    times = []
    for _ in range(3):
        start = time.perf_counter()
        fn()
        times.append(time.perf_counter() - start)
    return statistics.median(times)


# ---------------------------------------------------------------------------
# recording ops and checks
# ---------------------------------------------------------------------------

class Recorder:
    """Times ops, counts them, and records failed output checks.

    Times of the round in progress wait in ``pending`` until :meth:`commit`
    scales them by the round's speed factor."""

    def __init__(self, tracer=None):
        self.tracer = tracer
        self.recording = False
        self.samples: dict[str, list[float]] = defaultdict(list)  # speed-adjusted
        self.raw: dict[str, list[float]] = defaultdict(list)  # wall clock
        self.rates: dict[str, list[float]] = defaultdict(list)  # bytes/s, speed-adjusted
        self.raw_rates: dict[str, list[float]] = defaultdict(list)
        self.op_kinds: dict[int, str] = {}
        self.attempted = 0
        self.failed = 0
        self.busy = 0.0  # seconds spent inside measured work, speed-adjusted
        self.raw_busy = 0.0
        self.in_session = False  # ops inside a session count via its wall time
        # kind, seconds, counts as busy time, scales with machine speed, bytes
        self.pending: list[tuple[str, float, bool, bool, int]] = []
        self.problems: list[str] = []
        self.sha256 = [0, 0.0]  # bytes, seconds of raw hashlib.sha256
        self.signatures = [0, 0]  # embedded, computed (traced runs only)

    def begin(self, kind: str) -> int:
        """Attribute the spans that follow to a new op of ``kind``; returns
        the op that was current, for :meth:`end`."""
        if self.tracer is None:
            return -1
        previous = self.tracer.op
        op = len(self.op_kinds)
        self.op_kinds[op] = kind if self.recording or kind == "setup" else "warmup"
        self.tracer.op = op
        return previous

    def end(self, previous: int) -> None:
        if self.tracer is not None:
            self.tracer.op = previous

    def op(self, kind: str, fn, *args, nbytes: int = 0):
        previous = self.begin(kind)
        try:
            start = time.perf_counter()
            result = fn(*args)
            elapsed = time.perf_counter() - start
        finally:
            self.end(previous)
        if self.recording:
            self.attempted += 1
            self.pending.append((kind, elapsed, not self.in_session, True, nbytes))
        return result

    def sample(self, kind: str, seconds: float, busy: bool = False, scaled: bool = True) -> None:
        """Record a time that is not a single op: a round, or a session
        (mostly waiting, so ``scaled=False``)."""
        if self.recording:
            self.pending.append((kind, seconds, busy, scaled, 0))

    def pending_busy(self) -> float:
        return sum(entry[1] for entry in self.pending if entry[2])

    def commit(self, factor: float) -> None:
        for kind, seconds, busy, scaled, nbytes in self.pending:
            adjusted = seconds * factor if scaled else seconds
            self.raw[kind].append(seconds)
            self.samples[kind].append(adjusted)
            if nbytes:
                self.raw_rates[kind].append(nbytes / seconds)
                self.rates[kind].append(nbytes / adjusted)
            if busy:
                self.raw_busy += seconds
                self.busy += adjusted
        self.pending.clear()

    def check(self, ok: bool, what: str, known_fault: bool = False) -> None:
        """Record one op's output check.  A failure counts against the op;
        unless it is the known fault, it also makes the run incorrect."""
        if ok:
            return
        if self.recording:
            self.failed += 1
        if not known_fault:
            self.problems.append(what)


def sha256_timed(rec: Recorder, chunks) -> bytes:
    start = time.perf_counter()
    hasher = hashlib.sha256()
    size = 0
    for chunk in chunks:
        hasher.update(chunk)
        size += len(chunk)
    value = hasher.digest()
    if rec.recording:
        rec.sha256[0] += size
        rec.sha256[1] += time.perf_counter() - start
    return value


def wire_segments(data: bytes) -> list[tuple[int, int, int, int, int]]:
    """(kind, head offset, label length, payload offset, payload length) of
    each segment, read straight from the documented wire layout."""
    if data[:4] != WIRE_MAGIC:
        raise ValueError("not a provlab container")
    out = []
    pos = 4
    while pos < len(data):
        kind, label_len = data[pos], data[pos + 1]
        payload = pos + 2 + label_len + 4
        length = int.from_bytes(data[payload - 4 : payload], "big")
        out.append((kind, pos, label_len, payload, length))
        pos = payload + length
    return out


def claim_binding_digest(asset) -> bytes:
    manifest = credentials.decode_manifest(container.extract_manifest(asset))
    return manifest.claim.binding.digest


# ---------------------------------------------------------------------------
# the lab: workspace, corpus and expectations, shared by every workload
# ---------------------------------------------------------------------------

class Lab:
    def __init__(self, root: Path, seed: int):
        self.ws = workspace.Workspace.initialize(root, seed)
        corpus.build_corpus(self.ws)
        index = json.loads((self.ws.corpus_dir / "index.json").read_text())
        self.crl = trust.decode_revocation_list((self.ws.root / index["crl"]).read_bytes())
        # expectations are the attack toolkit's hand-written outcomes and the
        # corpus's honest table, as recorded in the seeded index
        self.expected = {(e["scenario"], e["attack"]): e for e in index["entries"]}
        self.tamper_sources = sorted(
            e["scenario"]
            for e in index["entries"]
            if e["attack"] == "none" and e["expected"]["hardened"] == "ACCEPTED"
        )
        self.tsa = self.ws.tsa()
        self.configs = {}
        for name, scenario in signer.SCENARIOS.items():
            identity = signer.scenario_identity(self.ws, scenario)
            self.configs[name] = (identity, scenario)
        self._policies: dict = {}

    def signer_config(self, name: str, generator: str):
        identity, scenario = self.configs[name]
        return signer.SignerConfig(
            generator_name=generator,
            key=identity.key,
            chain=identity.chain,
            binding_mode=scenario.binding_mode,
            exclude_labels=scenario.exclude_labels,
            tsa=self.tsa,
            clock=self.ws.clock,
        )

    def policy(self, preset: str, at: int):
        key = (preset, at)
        if key not in self._policies:
            if preset == "spec":
                self._policies[key] = validator.spec_policy(self.ws.trust, at)
            else:
                self._policies[key] = validator.hardened_policy(self.ws.trust, at, crl=self.crl)
        return self._policies[key]


def scenario_contents(round_seed: int) -> dict:
    return {
        name: signer.build_scenario_content(scenario, round_seed)
        for name, scenario in signer.SCENARIOS.items()
    }


def signing_op(rec: Recorder, fn, *args, nbytes: int):
    """A ``sign`` op.  Traced, it also counts the Ed25519 signatures the op
    computed and those of them that end up in its output."""
    tracer = rec.tracer
    if tracer is None or not rec.recording:
        return rec.op("sign", fn, *args, nbytes=nbytes)
    tracer.signatures = []
    try:
        result = rec.op("sign", fn, *args, nbytes=nbytes)
    finally:
        computed, tracer.signatures = tracer.signatures, None
    wire = result if isinstance(result, bytes) else result.data
    rec.signatures[0] += sum(1 for s in computed if s in wire)
    rec.signatures[1] += len(computed)
    return result


def sign_round(lab: Lab, rec: Recorder, contents: dict) -> dict:
    """Sign each scenario's fresh content; check the binding digest."""
    signed = {}
    for name, (asset, assertions, generator) in contents.items():
        config = lab.signer_config(name, generator)
        result = signing_op(
            rec, signer.sign_asset, asset, assertions, config, nbytes=len(asset.data)
        )
        excluded = set(config.exclude_labels)
        expected = sha256_timed(
            rec, (asset.payload(s) for s in asset.segments if s.label not in excluded)
        )
        rec.check(
            claim_binding_digest(result) == expected,
            f"sign {name}: binding digest is not sha256 of the generated payloads",
        )
        signed[name] = result
    return signed


def attack_round(lab: Lab, rec: Recorder, contents: dict, signed: dict) -> list:
    """Apply every attack ATTACK_MATRIX allows, with the corpus's parameters."""
    matrix = attacks.ATTACK_MATRIX
    out = []
    for name in matrix["timestamp-replace"]:
        outcome = rec.op(
            "attack", attacks.attack_timestamp_replace, signed[name], lab.tsa,
            workspace.T0 - corpus.BACKDATE_DELTA, lab.ws.trust,
        )
        out.append((name, outcome))
    fake_gps = signer.format_gps(*corpus.FAKE_GPS).encode("ascii")
    for name in matrix["exclusion-mutate"]:
        outcome = rec.op(
            "attack", attacks.attack_exclusion_mutate, signed[name], "meta.gps", fake_gps
        )
        out.append((name, outcome))
    for name in matrix["sign-with-revoked"]:
        asset, assertions, generator = contents[name]
        outcome = rec.op(
            "attack", attacks.attack_sign_with_revoked, asset, assertions,
            lab.signer_config(name, generator), lab.ws.signing,
            corpus.REVOKE_AT, corpus.REVOKED_VALIDATION_TIME,
        )
        rec.check(
            outcome.mutated.data == signed[name].data,
            f"sign-with-revoked {name}: re-signing did not reproduce the signed asset",
        )
        out.append((name, outcome))

    def timewarp(asset):
        extended = timestamp.archival_extend(asset, lab.tsa, clock=corpus.ARCHIVAL_EXTEND_AT)
        return attacks.attack_expiry_timewarp(extended, corpus.TIMEWARP_VALIDATION_TIME)

    for name in matrix["expiry-timewarp"]:
        out.append((name, rec.op("attack", timewarp, signed[name])))
    for name in matrix["strip-manifest"]:
        out.append((name, rec.op("attack", attacks.attack_strip_manifest, signed[name])))
    return [(name, outcome.name, outcome.mutated) for name, outcome in out]


def round_entries(lab: Lab, rec: Recorder, contents: dict):
    """One round's fresh content, signed and attacked: (scenario, attack,
    asset) for the six honest assets and every attacked variant."""
    signed = sign_round(lab, rec, contents)
    entries = [(name, "none", asset) for name, asset in signed.items()]
    entries += attack_round(lab, rec, contents, signed)
    return signed, entries


def check_verdict(rec: Recorder, report, entry: dict, preset: str, what: str) -> None:
    verdict = report.verdict.value
    exit_code = validator.exit_code_for(report)
    rec.check(
        verdict == entry["expected"][preset] and exit_code == entry["expected_exit"][preset],
        f"{what} under {preset}: got {verdict}/exit {exit_code}, expected "
        f"{entry['expected'][preset]}/exit {entry['expected_exit'][preset]}",
    )


def tamper_positions(data: bytes, rng: random.Random, payload_bytes: int, framing: bool):
    """Single-byte change positions outside the manifest payload, and the
    label and kind byte positions among them."""
    positions: list[int] = []
    label_or_kind: set[int] = set()
    payload: list[int] = []
    if framing:
        positions.extend(range(len(WIRE_MAGIC)))
    for kind, head, label_len, start, length in wire_segments(data):
        if framing:
            positions.extend(range(head, start))
            label_or_kind.add(head)
            label_or_kind.update(range(head + 2, head + 2 + label_len))
        if kind != WIRE_MANIFEST_KIND:
            payload.extend(range(start, start + length))
    positions.extend(sorted(rng.sample(payload, payload_bytes)))
    return positions, label_or_kind


def flip(data: bytes, pos: int) -> bytes:
    mutated = bytearray(data)
    mutated[pos] ^= 0x01
    return bytes(mutated)


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------

class CorpusMix:
    """Rounds over the six scenarios: sign, attack, validate, tamper."""

    def __init__(self, lab: Lab, seed: int):
        self.lab = lab
        self.rng = random.Random(f"corpus-mix/{seed}")
        self.next_round()

    def next_round(self) -> None:
        self.round_seed = self.rng.getrandbits(32)
        self.contents = scenario_contents(self.round_seed)

    def round(self, rec: Recorder) -> None:
        lab = self.lab
        signed, entries = round_entries(lab, rec, self.contents)
        for scenario, attack, asset in entries:
            entry = lab.expected[(scenario, attack)]
            data = container.serialize_asset(asset)
            for preset in ("spec", "hardened"):
                report = rec.op(
                    "validate", validator.validate, data,
                    lab.policy(preset, entry["validation_time"]), nbytes=len(data),
                )
                check_verdict(rec, report, entry, preset, f"{scenario}/{attack}")
        tamper_rng = random.Random(self.round_seed)
        for scenario in lab.tamper_sources:
            entry = lab.expected[(scenario, "none")]
            data = container.serialize_asset(signed[scenario])
            policy = lab.policy("hardened", entry["validation_time"])
            positions, label_or_kind = tamper_positions(
                data, tamper_rng, TAMPER_PAYLOAD_BYTES, framing=True
            )
            for pos in positions:
                mutated = flip(data, pos)
                report = rec.op("tamper", validator.validate, mutated, policy, nbytes=len(data))
                rec.check(
                    report.verdict.value not in ACCEPTED,
                    f"tamper {scenario} byte {pos}: ACCEPTED under hardened",
                    known_fault=pos in label_or_kind,
                )
        rec.sample("round", rec.pending_busy())
        self.next_round()


class LargeAsset:
    """A fresh 64 MiB image per cycle: sign + serialize, then validate the
    written file through the CLI, then validate it with one byte changed."""

    def __init__(self, lab: Lab, seed: int, workdir: Path):
        self.lab = lab
        self.rng = random.Random(f"large-asset/{seed}")
        self.image = bytearray(self.rng.randbytes(LARGE_IMAGE_BYTES))
        _, assertions, generator = signer.build_scenario_content(
            signer.SCENARIOS[LARGE_SCENARIO], seed
        )
        self.assertions = assertions
        self.config = lab.signer_config(LARGE_SCENARIO, generator)
        self.path = workdir / "large.pvl"
        self.parts = self._fresh_parts()

    def _fresh_parts(self):
        rng = self.rng
        offset = rng.randrange(LARGE_IMAGE_BYTES - LARGE_FRESH_BLOCK)
        self.image[offset : offset + LARGE_FRESH_BLOCK] = rng.randbytes(LARGE_FRESH_BLOCK)
        kind = container.SegmentKind
        return [
            (kind.HEADER, "header", b"PVH0" + rng.randbytes(12)),
            (kind.METADATA, "meta.note", b"scenario=large-asset"),
            (kind.IMAGE_DATA, "image", self.image),
            (kind.TRAILER, "trailer", rng.randbytes(8)),
        ]

    def _cli_validate(self):
        argv = [
            "--workspace", str(self.lab.ws.root), "validate", str(self.path),
            "--policy", "hardened", "--format", "structured",
        ]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
        return code, out.getvalue()

    def sign(self, rec: Recorder) -> tuple[bytes, int]:
        parts, self.parts = self.parts, None
        asset = container.build_asset(parts)
        size = len(asset.data)

        def sign_and_serialize():
            return container.serialize_asset(signer.sign_asset(asset, self.assertions, self.config))

        wire = signing_op(rec, sign_and_serialize, nbytes=size)
        del asset
        segments = wire_segments(wire)
        digest = sha256_timed(rec, (p for _, _, p in parts))
        manifest = next(s for s in segments if s[0] == WIRE_MANIFEST_KIND)
        claim = credentials.decode_manifest(wire[manifest[3] : manifest[3] + manifest[4]]).claim
        rec.check(
            claim.binding.digest == digest,
            "large-asset sign: binding digest is not sha256 of the generated payloads",
        )
        image = next(s for s in segments if s[0] == container.SegmentKind.IMAGE_DATA)
        return wire, image[3]

    def round(self, rec: Recorder) -> None:
        wire, image_start = self.sign(rec)
        size = len(wire)
        self.path.write_bytes(wire)
        del wire
        code, out = rec.op("validate", self._cli_validate, nbytes=size)
        report = json.loads(out) if code in (0, 2, 3) else {}
        goals = report.get("goals", {})
        rec.check(
            code == 0 and report.get("verdict") == "ACCEPTED"
            and goals.get("G2") == "HELD" and goals.get("G5") == "HELD",
            f"large-asset validate: exit {code}, verdict {report.get('verdict')}, goals {goals}",
        )
        pos = image_start + self.rng.randrange(LARGE_IMAGE_BYTES)
        with open(self.path, "r+b") as handle:
            original = os.pread(handle.fileno(), 1, pos)
            os.pwrite(handle.fileno(), bytes([original[0] ^ 0x01]), pos)
        code, out = rec.op("tamper", self._cli_validate, nbytes=size)
        report = json.loads(out) if code in (0, 2, 3) else {}
        rec.check(
            code == 2 and report.get("goals", {}).get("G2") == "VIOLATED",
            f"large-asset tamper at {pos}: exit {code}, goals {report.get('goals')}",
        )
        rec.sample("round", rec.pending_busy())
        self.parts = self._fresh_parts()


class OnlineStatus(CorpusMix):
    """Sessions: fresh corpus-mix assets validated against a loopback
    status service started for the session and stopped after it."""

    def round(self, rec: Recorder) -> None:
        lab = self.lab
        signed, entries = round_entries(lab, rec, self.contents)
        work = []
        for scenario, attack, asset in entries:
            entry = lab.expected[(scenario, attack)]
            work.append(("validate", f"{scenario}/{attack}", container.serialize_asset(asset), entry))
        tamper_rng = random.Random(self.round_seed)
        for scenario in lab.tamper_sources:
            entry = lab.expected[(scenario, "none")]
            data = container.serialize_asset(signed[scenario])
            positions, _ = tamper_positions(data, tamper_rng, STATUS_TAMPER_BYTES, framing=False)
            for pos in positions:
                work.append(("tamper", f"{scenario} byte {pos}", flip(data, pos), entry))
        with_manifest = sum(1 for _, attack, _ in entries if attack != "strip-manifest")
        with_manifest += sum(1 for kind, *_ in work if kind == "tamper")

        reports = []
        previous = rec.begin("session")
        rec.in_session = True
        start = time.perf_counter()
        service = statusservice.run_status_service(lab.ws.signing)
        try:
            for kind, _, data, entry in work:
                policy = validator.hardened_policy(
                    lab.ws.trust, entry["validation_time"],
                    revocation_mode=validator.RevocationMode.STATUS_SERVICE_HARD_FAIL,
                    status_endpoint=service.endpoint,
                )
                reports.append(rec.op(kind, validator.validate, data, policy, nbytes=len(data)))
        finally:
            service.stop()
            elapsed = time.perf_counter() - start
            rec.end(previous)
            rec.in_session = False
        rec.sample("round", elapsed, busy=True, scaled=False)

        for (kind, what, _, entry), report in zip(work, reports):
            if kind == "validate":
                check_verdict(rec, report, entry, "hardened", what)
            else:
                rec.check(report.verdict.value not in ACCEPTED, f"tamper {what}: ACCEPTED")
        if len(service.query_log) != with_manifest:
            rec.problems.append(
                f"session made {len(service.query_log)} status queries, expected {with_manifest}"
            )
        self.next_round()


WORKLOADS = {"corpus-mix": CorpusMix, "large-asset": LargeAsset, "online-status": OnlineStatus}


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------

def percentile(values: list[float], q: float) -> float:
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def end_to_end(rec: Recorder, setup: list[float], raw: bool = False) -> dict:
    """The end-to-end metrics from speed-adjusted times, or from wall-clock
    times when ``raw``."""
    s = rec.raw if raw else rec.samples

    def per_second(kind):
        return statistics.median((rec.raw_rates if raw else rec.rates)[kind]) / MIB

    metrics = {
        "setup_s": (statistics.median(setup), "s"),
        "ops_per_s": (rec.attempted / (rec.raw_busy if raw else rec.busy), "ops/s"),
        "validate_ms_p50": (statistics.median(s["validate"]) * 1e3, "ms"),
        "validate_ms_p90": (percentile(s["validate"], 0.9) * 1e3, "ms"),
        "sign_ms_p50": (statistics.median(s["sign"]) * 1e3, "ms"),
        "tamper_ms_p50": (statistics.median(s["tamper"]) * 1e3, "ms"),
        "validate_mib_per_s": (per_second("validate"), "MiB/s"),
        "sign_mib_per_s": (per_second("sign"), "MiB/s"),
        "session_ms_p50": (statistics.median(s["round"]) * 1e3, "ms"),
        "peak_rss_mib": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MiB"),
    }
    return {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()}


# (metric, unit, span, statistic, op kind).  The statistic is "calls",
# "self" (self time) or "total" (span time), each summed over the ops of the
# kind and divided by their number; or "per_call", the mean span time over
# every measured call, whatever the op.
_SCALE = {"ms": 1e-6, "us": 1e-3}
PER_LAYER = (
    ("container.parse_asset.self_ms_per_validate", "ms", "container.parse_asset", "self", "validate"),
    ("container.serialize_asset.self_ms_per_sign", "ms", "container.serialize_asset", "self", "sign"),
    ("container.embed_manifest.self_ms_per_sign", "ms", "container.embed_manifest", "self", "sign"),
    ("cli.main.self_ms_per_validate", "ms", "cli.main", "self", "validate"),
    ("workspace.Workspace.load.ms_per_validate", "ms", "workspace.Workspace.load", "total", "validate"),
    ("trust.Authority.generate_crl.ms_per_validate", "ms", "trust.Authority.generate_crl", "total", "validate"),
    ("encoding.decode_value.self_us_per_validate", "us", "encoding.decode_value", "self", "validate"),
    ("encoding.encode_value.calls_per_validate", "count", "encoding.encode_value", "calls", "validate"),
    ("encoding.encode_value.self_us_per_validate", "us", "encoding.encode_value", "self", "validate"),
    ("encoding.encode_value.self_us_per_sign", "us", "encoding.encode_value", "self", "sign"),
    ("credentials.decode_manifest.self_us_per_validate", "us", "credentials.decode_manifest", "self", "validate"),
    ("credentials.encode_manifest.calls_per_sign", "count", "credentials.encode_manifest", "calls", "sign"),
    ("crypto.verify.calls_per_validate", "count", "crypto.verify", "calls", "validate"),
    ("crypto.sign.calls_per_sign", "count", "crypto.sign", "calls", "sign"),
    ("trust.verify_chain.calls_per_validate", "count", "trust.verify_chain", "calls", "validate"),
    ("trust.verify_chain.self_us_per_validate", "us", "trust.verify_chain", "self", "validate"),
    ("trust.certificate_template_bytes.calls_per_validate", "count", "trust.certificate_template_bytes", "calls", "validate"),
    ("trust.verify_crl.us_per_validate", "us", "trust.verify_crl", "total", "validate"),
    ("timestamp.verify_token.calls_per_validate", "count", "timestamp.verify_token", "calls", "validate"),
    ("timestamp.verify_token.self_us_per_validate", "us", "timestamp.verify_token", "self", "validate"),
    ("timestamp.issue_token.calls_per_sign", "count", "timestamp.issue_token", "calls", "sign"),
    ("validator.validate.self_us_per_validate", "us", "validator.validate", "self", "validate"),
    ("signer.sign_asset.self_ms_per_sign", "ms", "signer.sign_asset", "self", "sign"),
    ("crypto.verify.us_per_call", "us", "crypto.verify", "per_call", None),
    ("statusservice.run_status_service.ms", "ms", "statusservice.run_status_service", "per_call", None),
    ("statusservice.StatusService.stop.ms", "ms", "statusservice.StatusService.stop", "per_call", None),
    ("statusservice.query_status.ms_per_call", "ms", "statusservice.query_status", "per_call", None),
    ("statusservice.StatusService.answer.us_per_call", "us", "statusservice.StatusService.answer", "per_call", None),
    ("workspace.Workspace.initialize.ms", "ms", "workspace.Workspace.initialize", "per_call", None),
    ("corpus.build_corpus.ms", "ms", "corpus.build_corpus", "per_call", None),
)


def per_layer(rec: Recorder, tracer, peaks: dict) -> dict:
    summary = tracer.summary(rec.op_kinds)
    ops = defaultdict(int)
    for kind in rec.op_kinds.values():
        ops[kind] += 1
    installed = set(tracer.names)
    metrics: dict[str, tuple[float, str]] = {}

    def ratio(num, den):
        return num / den if den else 0.0

    for name, unit, span, stat, kind in PER_LAYER:
        if span not in installed:
            continue
        scale = _SCALE.get(unit, 1.0)
        if stat == "calls":
            value = ratio(summary.total(summary.calls, span, kind), ops[kind])
        elif stat in ("self", "total"):
            table = summary.self_ns if stat == "self" else summary.ns
            value = ratio(summary.total(table, span, kind), ops[kind]) * scale
        else:
            value = ratio(summary.total(summary.ns, span), summary.total(summary.calls, span)) * scale
        metrics[name] = (value, unit)

    binding = "container.compute_hard_binding"
    if binding in installed:
        hashed = summary.total(summary.extra, binding) / MIB
        seconds = summary.total(summary.ns, binding) / 1e9
        metrics[f"{binding}.mib_per_s"] = (ratio(hashed, seconds), "MiB/s")
        raw_rate = ratio(rec.sha256[0] / MIB, rec.sha256[1])
        metrics["container.hard_binding_over_sha256"] = (
            ratio(raw_rate, ratio(hashed, seconds)), "ratio"
        )
    if "crypto.verify" in installed:
        metrics["crypto.verify.repeat_share"] = (
            ratio(summary.total(summary.extra, "crypto.verify"),
                  summary.total(summary.calls, "crypto.verify")),
            "fraction",
        )
    if "crypto.sign" in installed:
        metrics["signer.signatures_kept_share"] = (ratio(*rec.signatures), "fraction")
    if "statusservice.StatusService.answer" in installed:
        metrics["statusservice.queries_per_session"] = (
            ratio(summary.total(summary.calls, "statusservice.StatusService.answer"), ops["session"]),
            "count",
        )
    for name, value in peaks.items():
        metrics[name] = (value, "MiB")
    return {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()}


def allocation_peaks(workload, rec: Recorder) -> dict:
    """Peak tracemalloc allocation of one sign op and, where the workload
    uses the CLI, one CLI validate; a separate pass so that tracemalloc does
    not distort the traced timings."""
    peaks = {"signer.sign_asset.peak_alloc_mib": 0.0, "cli.main.peak_alloc_mib": 0.0}
    rec.recording = False

    def peak(fn) -> float:
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            fn()
            return (tracemalloc.get_traced_memory()[1] - base) / MIB
        finally:
            tracemalloc.stop()

    if isinstance(workload, LargeAsset):
        asset = container.build_asset(workload.parts)
        peaks["signer.sign_asset.peak_alloc_mib"] = peak(
            lambda: signer.sign_asset(asset, workload.assertions, workload.config)
        )
        del asset
        workload.round(rec)  # leaves a fresh file (one image byte changed) to validate
        peaks["cli.main.peak_alloc_mib"] = peak(workload._cli_validate)
    else:
        name = workload.lab.tamper_sources[0]
        asset, assertions, generator = workload.contents[name]
        config = workload.lab.signer_config(name, generator)
        peaks["signer.sign_asset.peak_alloc_mib"] = peak(
            lambda: signer.sign_asset(asset, assertions, config)
        )
    return peaks


# ---------------------------------------------------------------------------
# main
# ---------------------------------------------------------------------------

def rounds_for(workload: str, seconds: int) -> int:
    return max(1, round(seconds * ROUNDS_PER_SECOND[workload]))


def run(args) -> dict:
    tracer = None
    if args.trace:
        import tracer as tracer_module

        tracer = tracer_module.Tracer()
        tracer.install()
    rec = Recorder(tracer)
    workdir = WORK_DIR / f"run-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    try:
        task = "memory" if args.workload == "large-asset" else "compute"
        reference = CALIBRATION_TASKS[task][1]
        setup_times = []
        raw_setup_times = []
        workload = None
        if tracer is not None:
            tracer.active = True
        for attempt in range(SETUP_REPEATS):
            del workload
            root = workdir / f"setup-{attempt}"
            shutil.rmtree(workdir, ignore_errors=True)
            root.mkdir(parents=True)
            before = calibrate(task)
            previous = rec.begin("setup")
            start = time.perf_counter()
            lab = Lab(root / "ws", args.seed)
            if args.workload == "large-asset":
                workload = LargeAsset(lab, args.seed, root)
            else:
                workload = WORKLOADS[args.workload](lab, args.seed)
            elapsed = time.perf_counter() - start
            rec.end(previous)
            speed = (before + calibrate(task)) / 2
            raw_setup_times.append(elapsed)
            setup_times.append(elapsed * reference / speed)

        for _ in range(WARMUP_ROUNDS):
            workload.round(rec)
        rec.recording = True
        before = calibrate(task)
        for _ in range(rounds_for(args.workload, args.seconds)):
            workload.round(rec)
            after = calibrate(task)
            rec.commit(reference / ((before + after) / 2))
            before = after
        if tracer is not None:
            tracer.active = False
            peaks = allocation_peaks(workload, rec)
            metrics = per_layer(rec, tracer, peaks)
            tracer.write(SPAN_DIR / f"{args.workload}-seed{args.seed}.spans", rec.op_kinds)
            if tracer.missing:
                print("hooks not installed: " + ", ".join(tracer.missing))
            traced = end_to_end(rec, setup_times)
            print("traced end-to-end: " + json.dumps({k: v["value"] for k, v in traced.items()}))
        else:
            metrics = end_to_end(rec, setup_times)
            raw = end_to_end(rec, raw_setup_times, raw=True)
            print("wall-clock: " + json.dumps({k: v["value"] for k, v in raw.items()}))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            WORK_DIR.rmdir()  # only if no other run is using it
    for problem in rec.problems[:20]:
        print(f"check failed: {problem}", file=sys.stderr)
    return {
        "correct": not rec.problems,
        "attempted": rec.attempted,
        "failed": rec.failed,
        "metrics": metrics,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    _import_provlab()
    result = run(args)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
