"""Kernel backend selection.

The linking hot path (merge-alignment, Vmax compatibility, the
Poisson-Binomial convolution DP) runs on two interchangeable,
bit-identical backends:

``"numpy"``
    Batched vectorised kernels over flat pool arrays — the production
    path.  Pure NumPy, no optional dependencies.
``"python"``
    The per-pair reference path (one NumPy dispatch per pair).  Kept as
    the ground truth for equivalence tests and benchmark baselines.

``"auto"`` (the default everywhere) means ``"numpy"``.  The backend is
chosen in code, through :class:`~repro.core.engine.LinkOptions` or
:class:`~repro.config.FTLConfig`'s ``kernel_backend`` field.
"""

from __future__ import annotations

from repro.errors import ValidationError

#: Valid kernel backend names (``"auto"`` resolves to ``"numpy"``).
KERNEL_BACKENDS = ("auto", "numpy", "python")


def resolve_kernel_backend(requested: str | None = None) -> str:
    """Resolve a backend request to a concrete backend name.

    ``requested`` is ``"numpy"``, ``"python"``, ``"auto"`` or ``None``
    (treated as ``"auto"``), case-insensitive; the result is
    ``"numpy"`` or ``"python"``.  Unknown names raise
    :class:`~repro.errors.ValidationError`.
    """
    name = "auto" if requested is None else str(requested).lower()
    if name not in KERNEL_BACKENDS:
        raise ValidationError(
            f"unknown kernel backend {name!r}; known: {KERNEL_BACKENDS}"
        )
    return "numpy" if name == "auto" else name
