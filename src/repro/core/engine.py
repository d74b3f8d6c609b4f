"""Shared numpy-engine selection for the vectorized/reference twins.

Several hot paths ship two bit-identical implementations — a vectorized
numpy engine and a pure-python reference twin: the batched orientation
engine (:mod:`repro.core.balanced_orientation`), the
line-graph Linial schedule and greedy machinery
(:mod:`repro.coloring.greedy`), the defective min-conflict reduction
(:mod:`repro.coloring.defective_vertex`) and the defect measurement
(:mod:`repro.core.defective_edge_coloring`).  They all select their
engine through :func:`resolve_use_numpy`, driven by one ``scan_path``
knob with identical semantics everywhere:

* ``"auto"`` — numpy when available and the instance has at least
  :data:`NUMPY_SCAN_THRESHOLD` elements (overridable process-wide via
  the ``REPRO_SCAN_PATH`` environment variable, which CI uses to run
  the whole suite on one forced engine).  The orientation engine passes
  no size: it batches whole recursion levels, so it runs vectorized at
  every part size;
* ``"numpy"`` — force the vectorized engine (``RuntimeError`` when
  numpy is unavailable);
* ``"python"`` — force the reference twin.

The differential matrix (``tests/test_differential_paths.py``) pins
every pair of twins bit-identical.
"""

from __future__ import annotations

import os
from typing import Optional

try:  # numpy accelerates the vectorized engines when present.
    import numpy as _np
except ImportError:  # pragma: no cover - the pure-python twins are equivalent
    _np = None

#: Instance size (elements scanned per phase/step) above which the
#: vectorized engines engage in ``scan_path="auto"`` mode.  Below it,
#: per-op numpy dispatch overhead makes the pure-python twins faster.
NUMPY_SCAN_THRESHOLD = 128

#: Environment override for ``scan_path="auto"`` (used by CI to run the
#: whole suite on one forced engine): ``REPRO_SCAN_PATH=numpy`` /
#: ``REPRO_SCAN_PATH=python``.  Explicit ``scan_path`` arguments win.
_ENV_SCAN_PATH = os.environ.get("REPRO_SCAN_PATH", "").strip().lower() or None


def resolve_use_numpy(scan_path: str, size: Optional[int] = None) -> bool:
    """Whether to run the vectorized engine (see the module docstring).

    ``size`` is the instance size ``"auto"`` compares with
    :data:`NUMPY_SCAN_THRESHOLD`; ``None`` means no size cut.
    """
    if scan_path == "auto" and _ENV_SCAN_PATH in ("numpy", "python"):
        scan_path = _ENV_SCAN_PATH
    if scan_path == "auto":
        return _np is not None and (size is None or size >= NUMPY_SCAN_THRESHOLD)
    if scan_path == "numpy":
        if _np is None:
            raise RuntimeError("scan_path='numpy' requested but numpy is unavailable")
        return True
    if scan_path == "python":
        return False
    raise ValueError(
        f"unknown scan_path {scan_path!r}: expected 'auto', 'numpy' or 'python'"
    )
