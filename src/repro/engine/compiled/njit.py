"""Numba-compiled variants of the :mod:`.kernels` loops.

Numba is an *optional* accelerator, never a dependency: importing this
module is always safe, and :func:`available` reports whether the jitted
kernels can actually be used.  When numba is absent (the common case in
CI) the backend layer falls back to ``python`` or ``cext``
automatically — see :mod:`repro.engine.backend`.

The kernels in :mod:`.kernels` are written in the numba-friendly
subset (flat arrays, scalar registers, no Python objects), so this
module is nothing but ``njit`` applied to them.  ``nogil=True`` lets
concurrent service jobs overlap jitted chunks on real threads.
"""

from __future__ import annotations

from . import kernels

try:  # pragma: no cover - exercised only where numba is installed
    import numba

    _IMPORT_ERROR: str | None = None
except Exception as exc:  # pragma: no cover - import probe
    numba = None
    _IMPORT_ERROR = f"{type(exc).__name__}: {exc}"

# Per-process memo of the jit outcome; workers each warm their own
# copy, which is exactly the behaviour we want for process pools.
_cache: dict[str, object] = {}


def load() -> dict[str, object]:
    """The jitted kernel table ``{name: callable}``; raises when numba
    is unusable and caches the outcome either way."""
    if "table" in _cache:
        return _cache["table"]
    if "error" in _cache:
        raise RuntimeError(_cache["error"])
    if numba is None:
        _cache["error"] = (
            f"numba backend unavailable: import failed ({_IMPORT_ERROR})"
        )
        raise RuntimeError(_cache["error"])
    try:  # pragma: no cover - exercised only where numba is installed
        jit = numba.njit(cache=True, nogil=True)
        _cache["table"] = {name: jit(getattr(kernels, name)) for name in kernels.KERNELS}
    except Exception as exc:  # pragma: no cover - defensive: jit failure
        _cache["error"] = f"numba backend unavailable: njit failed ({exc})"
        raise RuntimeError(_cache["error"]) from exc
    return _cache["table"]


def available() -> tuple[bool, str]:
    """(usable, reason) — compiles lazily, so a True answer is cheap
    until a kernel actually runs."""
    if numba is None:
        return False, f"numba is not importable ({_IMPORT_ERROR})"
    try:  # pragma: no cover - exercised only where numba is installed
        load()
    except RuntimeError as exc:
        return False, str(exc)
    return True, f"numba {numba.__version__}"
