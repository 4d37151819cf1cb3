"""Versioned fitted-model (Mr/Ma) artifacts.

A serving deployment must be able to say *which* rejection/acceptance
model pair it is running, reproduce how that pair was fitted, and swap
in a refit without a restart.  This module gives the fitted pair a
durable identity: a :class:`ModelArtifact` bundles both
:class:`~repro.core.models.CompatibilityModel` count tables with
fitting provenance (dataset content hash, full config snapshot, sample
counts, fit timestamp, artifact schema version) under a
content-addressed artifact id.

Artifacts are persisted as ``models/<artifact_id>.json`` inside a
trajectory store and registered in the store manifest (see
:class:`~repro.store.format.ModelArtifactInfo`); the manifest's
``active_model`` pointer names the artifact the daemon serves by
default.  The payload is written with the same atomic-rename discipline
as the manifest, so a crash mid-save leaves at worst an unreferenced
file behind.
"""

from __future__ import annotations

import hashlib
import json
import time
from dataclasses import asdict, dataclass
from typing import Iterable, Sequence

import numpy as np

from repro.config import FTLConfig
from repro.core.database import TrajectoryDatabase
from repro.core.models import CompatibilityModel, require_fitted_pair
from repro.errors import ValidationError

#: Schema version of the artifact *payload* (independent of the store's
#: manifest ``format_version``); readers reject anything newer.
ARTIFACT_SCHEMA_VERSION = 1

#: Magic string identifying an artifact payload.
ARTIFACT_FORMAT = "ftl-model"


def dataset_content_hash(databases: Iterable[TrajectoryDatabase]) -> str:
    """A deterministic content hash of the fitting data.

    Hashes every trajectory's id and raw record arrays, with the
    trajectories of each database visited in sorted-id order so the
    hash is insensitive to in-memory insertion order (a store load and
    a CSV load of the same data hash identically).
    """
    digest = hashlib.blake2b(digest_size=16)
    for db in databases:
        trajs = sorted(db, key=lambda t: str(t.traj_id))
        digest.update(f"db:{len(trajs)}".encode())
        for traj in trajs:
            digest.update(str(traj.traj_id).encode())
            for arr in (traj.ts, traj.xs, traj.ys):
                digest.update(np.ascontiguousarray(arr, dtype="<f8").tobytes())
    return digest.hexdigest()


@dataclass(frozen=True)
class ModelProvenance:
    """How an artifact's model pair was fitted."""

    dataset_hash: str
    n_trajectories: int
    n_rejection_segments: int
    n_acceptance_segments: int
    n_acceptance_pairs: int
    fitted_at: float
    schema_version: int = ARTIFACT_SCHEMA_VERSION

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, obj: dict) -> "ModelProvenance":
        try:
            version = int(obj["schema_version"])
        except (KeyError, TypeError, ValueError) as exc:
            raise ValidationError(
                f"malformed artifact provenance: {exc}"
            ) from exc
        if version > ARTIFACT_SCHEMA_VERSION:
            raise ValidationError(
                f"model artifact has schema_version {version}; this reader "
                f"supports up to {ARTIFACT_SCHEMA_VERSION} — the artifact "
                "was saved by a newer version of this software"
            )
        try:
            return cls(
                dataset_hash=str(obj["dataset_hash"]),
                n_trajectories=int(obj["n_trajectories"]),
                n_rejection_segments=int(obj["n_rejection_segments"]),
                n_acceptance_segments=int(obj["n_acceptance_segments"]),
                n_acceptance_pairs=int(obj["n_acceptance_pairs"]),
                fitted_at=float(obj["fitted_at"]),
                schema_version=version,
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise ValidationError(
                f"malformed artifact provenance: {exc}"
            ) from exc


@dataclass(frozen=True)
class ModelArtifact:
    """A fitted (Mr, Ma) pair plus provenance, under a content-hash id."""

    rejection: CompatibilityModel
    acceptance: CompatibilityModel
    provenance: ModelProvenance

    def __post_init__(self) -> None:
        require_fitted_pair(self.rejection, self.acceptance)

    @property
    def config(self) -> FTLConfig:
        return self.rejection.config

    @property
    def artifact_id(self) -> str:
        """Content-addressed id: saving the same fit twice is idempotent."""
        body = {
            "rejection": self.rejection.to_dict(),
            "acceptance": self.acceptance.to_dict(),
            "provenance": self.provenance.to_dict(),
        }
        canonical = json.dumps(body, sort_keys=True, separators=(",", ":"))
        return "m-" + hashlib.blake2b(
            canonical.encode(), digest_size=8
        ).hexdigest()

    def to_dict(self) -> dict:
        return {
            "format": ARTIFACT_FORMAT,
            "id": self.artifact_id,
            "rejection": self.rejection.to_dict(),
            "acceptance": self.acceptance.to_dict(),
            "provenance": self.provenance.to_dict(),
        }

    @classmethod
    def from_dict(cls, obj: dict) -> "ModelArtifact":
        if not isinstance(obj, dict) or obj.get("format") != ARTIFACT_FORMAT:
            raise ValidationError(f"not a {ARTIFACT_FORMAT} artifact payload")
        provenance = ModelProvenance.from_dict(obj.get("provenance", {}))
        try:
            rejection = CompatibilityModel.from_dict(obj["rejection"])
            acceptance = CompatibilityModel.from_dict(obj["acceptance"])
        except KeyError as exc:
            raise ValidationError(
                f"malformed artifact payload: missing {exc}"
            ) from exc
        artifact = cls(rejection, acceptance, provenance)
        declared = obj.get("id")
        if declared is not None and declared != artifact.artifact_id:
            raise ValidationError(
                f"artifact id mismatch: payload declares {declared!r} but "
                f"its content hashes to {artifact.artifact_id!r} — the file "
                "was corrupted or hand-edited"
            )
        return artifact

    def summary(self) -> dict:
        """The compact description ``ftl model inspect`` prints."""
        return {
            "id": self.artifact_id,
            "n_buckets": self.rejection.n_buckets,
            "config": self.config.to_dict(),
            "provenance": self.provenance.to_dict(),
        }

    def __repr__(self) -> str:
        return (
            f"ModelArtifact(id={self.artifact_id!r}, "
            f"buckets={self.rejection.n_buckets})"
        )


def fit_model_artifact(
    databases: Sequence[TrajectoryDatabase],
    config: FTLConfig,
    rng: np.random.Generator,
    max_pairs: int | None = None,
    fitted_at: float | None = None,
) -> ModelArtifact:
    """Fit Mr and Ma on ``databases`` and wrap them with provenance."""
    databases = list(databases)
    dataset_hash = dataset_content_hash(databases)
    rejection = CompatibilityModel.fit_rejection(databases, config)
    acceptance = CompatibilityModel.fit_acceptance(
        databases, config, rng, max_pairs=max_pairs
    )
    cap = config.max_acceptance_pairs if max_pairs is None else max_pairs
    n_pairs = sum(
        min(cap, len(db) * (len(db) - 1) // 2) for db in databases
    )
    provenance = ModelProvenance(
        dataset_hash=dataset_hash,
        n_trajectories=sum(len(db) for db in databases),
        n_rejection_segments=rejection.n_segments,
        n_acceptance_segments=acceptance.n_segments,
        n_acceptance_pairs=n_pairs,
        fitted_at=time.time() if fitted_at is None else float(fitted_at),
    )
    return ModelArtifact(rejection, acceptance, provenance)


def diff_artifacts(a: ModelArtifact, b: ModelArtifact) -> dict:
    """A structured comparison of two artifacts (``ftl model diff``).

    Reports config fields that differ, provenance deltas and — when the
    bucketings agree — the largest absolute per-bucket probability
    change of each model.
    """
    config_a, config_b = a.config.to_dict(), b.config.to_dict()
    config_diff = {
        key: {"a": config_a[key], "b": config_b[key]}
        for key in config_a
        if config_a[key] != config_b[key]
    }
    out: dict = {
        "a": a.artifact_id,
        "b": b.artifact_id,
        "identical": a.artifact_id == b.artifact_id,
        "config_diff": config_diff,
        "provenance": {
            "a": a.provenance.to_dict(),
            "b": b.provenance.to_dict(),
        },
    }
    if a.rejection.n_buckets == b.rejection.n_buckets:
        out["max_abs_prob_delta"] = {
            "rejection": float(
                np.max(np.abs(a.rejection.prob_table - b.rejection.prob_table))
            ),
            "acceptance": float(
                np.max(
                    np.abs(a.acceptance.prob_table - b.acceptance.prob_table)
                )
            ),
        }
    else:
        out["max_abs_prob_delta"] = None
    return out
