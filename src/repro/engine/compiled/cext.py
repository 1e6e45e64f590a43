"""C mirror of :mod:`.kernels`, built on demand with the host compiler.

No third-party dependency and no build at install time: the first use
compiles the embedded C source with the system compiler (``$CC``,
``cc``, ``gcc`` or ``clang``) into a content-addressed shared object
under ``REPRO_CEXT_CACHE`` (default ``~/.cache/repro/cext``) and loads
it through :mod:`ctypes`.  Rebuilds happen only when the source
changes (the file name embeds the source hash).  Any failure —
no compiler, sandboxed tmpdir, unloadable object — marks the backend
unavailable and the caller falls back; nothing raises at import time.

The C functions are line-for-line transliterations of the Python
kernels; both are pinned bit-identical to the reference predictors by
``tests/test_engine_backend.py``.
"""

from __future__ import annotations

import ctypes
import hashlib
import inspect
import os
import shutil
import subprocess
import tempfile
from pathlib import Path

from . import kernels

_SOURCE = r"""
#include <stdint.h>

#define EXPORT __attribute__((visibility("default")))

EXPORT void twolevel_step(
    int64_t n, const int64_t *pcs, const uint8_t *outcomes,
    uint8_t *predictions, int64_t *regs, const int64_t *params,
    uint8_t *pht, int64_t *bht)
{
    int64_t ghr = regs[0];
    const int64_t history_kind = params[0], index_scheme = params[1];
    const int64_t history_bits = params[2], pht_mask = params[3];
    const int64_t pc_fill_bits = params[4], bht_mask = params[5];
    const int64_t ctr_threshold = params[6], ctr_max = params[7];
    const int64_t hist_mask = params[8];
    for (int64_t i = 0; i < n; i++) {
        const int64_t pc = pcs[i];
        const int64_t taken = outcomes[i];
        int64_t h;
        if (history_bits == 0) h = 0;
        else if (history_kind == 0) h = ghr;
        else h = bht[pc & bht_mask];
        int64_t index;
        if (index_scheme == 0)
            index = ((h << pc_fill_bits) | (pc & ((1ll << pc_fill_bits) - 1))) & pht_mask;
        else
            index = (h ^ pc) & pht_mask;
        const uint8_t v = pht[index];
        predictions[i] = v >= ctr_threshold ? 1 : 0;
        if (taken) { if (v < ctr_max) pht[index] = v + 1; }
        else if (v > 0) pht[index] = v - 1;
        if (history_bits != 0) {
            if (history_kind == 0) ghr = ((ghr << 1) | taken) & hist_mask;
            else {
                const int64_t b = pc & bht_mask;
                bht[b] = ((bht[b] << 1) | taken) & hist_mask;
            }
        }
    }
    regs[0] = ghr;
}

EXPORT void yags_step(
    int64_t n, const int64_t *pcs, const uint8_t *outcomes,
    uint8_t *predictions, int64_t *regs, const int64_t *params,
    uint8_t *choice,
    int64_t *t_tags, uint8_t *t_valid, uint8_t *t_ctr,
    int64_t *nt_tags, uint8_t *nt_valid, uint8_t *nt_ctr)
{
    int64_t hist = regs[0];
    const int64_t hist_mask = params[0], cache_mask = params[1];
    const int64_t choice_mask = params[2], tag_mask = params[3];
    for (int64_t i = 0; i < n; i++) {
        const int64_t pc = pcs[i];
        const int64_t taken = outcomes[i];
        const int64_t choice_index = pc & choice_mask;
        const int64_t bias = choice[choice_index] >= 2 ? 1 : 0;
        const int64_t slot = (hist ^ pc) & cache_mask;
        const int64_t tag = pc & tag_mask;
        int64_t *tags; uint8_t *valid, *ctr;
        if (bias == 1) { tags = nt_tags; valid = nt_valid; ctr = nt_ctr; }
        else           { tags = t_tags;  valid = t_valid;  ctr = t_ctr; }
        const int hit = valid[slot] != 0 && tags[slot] == tag;
        if (hit) predictions[i] = ctr[slot] >= 2 ? 1 : 0;
        else     predictions[i] = (uint8_t)bias;
        if (hit) {
            const uint8_t v = ctr[slot];
            if (taken) { if (v < 3) ctr[slot] = v + 1; }
            else if (v > 0) ctr[slot] = v - 1;
        } else if (taken != bias) {
            tags[slot] = tag;
            valid[slot] = 1;
            ctr[slot] = taken ? 2 : 1;
        }
        if (!((bias != taken) && hit)) {
            const uint8_t v = choice[choice_index];
            if (taken) { if (v < 3) choice[choice_index] = v + 1; }
            else if (v > 0) choice[choice_index] = v - 1;
        }
        hist = ((hist << 1) | taken) & hist_mask;
    }
    regs[0] = hist;
}

EXPORT void bimode_step(
    int64_t n, const int64_t *pcs, const uint8_t *outcomes,
    uint8_t *predictions, int64_t *regs, const int64_t *params,
    uint8_t *taken_bank, uint8_t *not_taken_bank, uint8_t *choice)
{
    int64_t hist = regs[0];
    const int64_t hist_mask = params[0], dir_mask = params[1];
    const int64_t choice_mask = params[2];
    for (int64_t i = 0; i < n; i++) {
        const int64_t pc = pcs[i];
        const int64_t taken = outcomes[i];
        const int64_t choice_index = pc & choice_mask;
        const int64_t choose_taken = choice[choice_index] >= 2 ? 1 : 0;
        const int64_t dir_index = (hist ^ pc) & dir_mask;
        uint8_t *bank = choose_taken ? taken_bank : not_taken_bank;
        const uint8_t state = bank[dir_index];
        const int64_t pred = state >= 2 ? 1 : 0;
        predictions[i] = (uint8_t)pred;
        if (taken) { if (state < 3) bank[dir_index] = state + 1; }
        else if (state > 0) bank[dir_index] = state - 1;
        if (!((choose_taken != taken) && (pred == taken))) {
            const uint8_t v = choice[choice_index];
            if (taken) { if (v < 3) choice[choice_index] = v + 1; }
            else if (v > 0) choice[choice_index] = v - 1;
        }
        hist = ((hist << 1) | taken) & hist_mask;
    }
    regs[0] = hist;
}

EXPORT void filter_step(
    int64_t n, const int64_t *pcs, const uint8_t *outcomes,
    uint8_t *predictions, int64_t *regs, const int64_t *params,
    uint8_t *bias, uint16_t *count, uint8_t *pht, int64_t *bht)
{
    int64_t ghr = regs[0];
    const int64_t filt_mask = params[0], threshold = params[1];
    const int64_t max_count = params[2], history_kind = params[3];
    const int64_t index_scheme = params[4], history_bits = params[5];
    const int64_t pht_mask = params[6], pc_fill_bits = params[7];
    const int64_t bht_mask = params[8], ctr_threshold = params[9];
    const int64_t ctr_max = params[10], hist_mask = params[11];
    for (int64_t i = 0; i < n; i++) {
        const int64_t pc = pcs[i];
        const int64_t taken = outcomes[i];
        const int64_t slot = pc & filt_mask;
        const uint16_t c = count[slot];
        const int filtered = c >= threshold;
        int64_t h;
        if (history_bits == 0) h = 0;
        else if (history_kind == 0) h = ghr;
        else h = bht[pc & bht_mask];
        int64_t index;
        if (index_scheme == 0)
            index = ((h << pc_fill_bits) | (pc & ((1ll << pc_fill_bits) - 1))) & pht_mask;
        else
            index = (h ^ pc) & pht_mask;
        if (filtered) predictions[i] = bias[slot];
        else predictions[i] = pht[index] >= ctr_threshold ? 1 : 0;
        if (!filtered) {
            const uint8_t v = pht[index];
            if (taken) { if (v < ctr_max) pht[index] = v + 1; }
            else if (v > 0) pht[index] = v - 1;
            if (history_bits != 0) {
                if (history_kind == 0) ghr = ((ghr << 1) | taken) & hist_mask;
                else {
                    const int64_t b = pc & bht_mask;
                    bht[b] = ((bht[b] << 1) | taken) & hist_mask;
                }
            }
        }
        if (c > 0 && bias[slot] == taken) {
            if (c < max_count) count[slot] = c + 1;
        } else {
            bias[slot] = (uint8_t)taken;
            count[slot] = 1;
        }
    }
    regs[0] = ghr;
}

EXPORT void dhlf_step(
    int64_t n, const int64_t *pcs, const uint8_t *outcomes,
    uint8_t *predictions, int64_t *regs, const int64_t *params,
    uint8_t *pht, int64_t *explore_misses)
{
    const int64_t pht_mask = params[0], ghr_mask = params[1];
    const int64_t interval = params[2], max_history = params[3];
    const int64_t exploit_intervals = params[4];
    for (int64_t i = 0; i < n; i++) {
        const int64_t pc = pcs[i];
        const int64_t taken = outcomes[i];
        const int64_t hmask = (1ll << regs[1]) - 1;
        const int64_t index = ((regs[0] & hmask) ^ pc) & pht_mask;
        const uint8_t state = pht[index];
        const int64_t pred = state >= 2 ? 1 : 0;
        predictions[i] = (uint8_t)pred;
        if (taken) { if (state < 3) pht[index] = state + 1; }
        else if (state > 0) pht[index] = state - 1;
        regs[0] = ((regs[0] << 1) | taken) & ghr_mask;
        regs[3] += 1;
        if (pred != taken) regs[2] += 1;
        if (regs[3] >= interval) {
            const int64_t misses = regs[2];
            regs[2] = 0;
            regs[3] = 0;
            if (regs[4] > 0) {
                regs[4] -= 1;
                if (regs[4] == 0) { regs[1] = 0; regs[5] = 1; }
            } else {
                explore_misses[regs[1]] = misses;
                if (regs[5] <= max_history) { regs[1] = regs[5]; regs[5] += 1; }
                else {
                    int64_t best = 0;
                    for (int64_t cand = 1; cand <= max_history; cand++)
                        if (explore_misses[cand] < explore_misses[best]) best = cand;
                    regs[1] = best;
                    regs[4] = exploit_intervals;
                }
            }
        }
    }
}
"""

# Per-process memo of the build/load outcome; workers each load their
# own handle to the shared content-addressed .so.
_cache: dict[str, object] = {}


def cache_dir() -> Path:
    """Directory holding the built shared objects."""
    override = os.environ.get("REPRO_CEXT_CACHE")
    if override:
        return Path(override)
    return Path.home() / ".cache" / "repro" / "cext"


def _find_compiler() -> str | None:
    for candidate in (os.environ.get("CC"), "cc", "gcc", "clang"):
        if candidate and shutil.which(candidate):
            return candidate
    return None


def _build(directory: Path) -> Path:
    """Compile the embedded source into ``directory``; returns the .so."""
    digest = hashlib.sha256(_SOURCE.encode()).hexdigest()[:16]
    target = directory / f"repro_kernels_{digest}.so"
    if target.exists():
        return target
    compiler = _find_compiler()
    if compiler is None:
        raise RuntimeError("no C compiler found (tried $CC, cc, gcc, clang)")
    directory.mkdir(parents=True, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=directory) as tmp:
        source = Path(tmp) / "repro_kernels.c"
        source.write_text(_SOURCE)
        built = Path(tmp) / "repro_kernels.so"
        command = [
            compiler, "-O2", "-shared", "-fPIC", "-fvisibility=hidden",
            "-o", str(built), str(source),
        ]
        result = subprocess.run(command, capture_output=True, text=True, timeout=120)
        if result.returncode != 0:
            raise RuntimeError(
                f"{compiler} failed ({result.returncode}): {result.stderr.strip()[:500]}"
            )
        # Atomic publish: concurrent builders race benignly to the same
        # content-addressed name.
        os.replace(built, target)
    return target


def _array_args(name: str) -> int:
    return len(inspect.signature(getattr(kernels, name)).parameters)


def _wrap(func, array_args: int):
    """A Python-signature adapter: (arrays...) -> C call with length.

    Arrays travel as raw addresses (the C prototypes give their element
    types): a ``data_as`` pointer cast per array costs more than the C
    loop itself on short chunks.
    """
    func.restype = None
    func.argtypes = (ctypes.c_int64,) + (ctypes.c_void_p,) * array_args

    def call(pcs, outcomes, predictions, regs, params, *state):
        arrays = (pcs, outcomes, predictions, regs, params) + state
        func(len(pcs), *[a.ctypes.data for a in arrays])

    return call


def load() -> dict[str, object]:
    """The kernel table ``{name: callable}``; raises on first failure
    and caches the outcome either way."""
    if "table" in _cache:
        return _cache["table"]
    if "error" in _cache:
        raise RuntimeError(_cache["error"])
    try:
        library = ctypes.CDLL(str(_build(cache_dir())))
        _cache["table"] = {
            # Same arrays, in the same order, as the Python kernel takes.
            name: _wrap(getattr(library, name), _array_args(name))
            for name in kernels.KERNELS
        }
    except Exception as exc:  # noqa: BLE001 - availability probe must not raise types
        _cache["error"] = f"cext backend unavailable: {exc}"
        raise RuntimeError(_cache["error"]) from exc
    return _cache["table"]


def available() -> tuple[bool, str]:
    """(usable, reason) — builds and loads on first call."""
    try:
        load()
    except RuntimeError as exc:
        return False, str(exc)
    return True, "compiled with the host C compiler"
