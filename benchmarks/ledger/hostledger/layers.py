"""Fold a cProfile run of ``DsmRuntime.execute`` into the ledger's layers.

The map from source file to layer is explicit and total: a file under
``src/repro`` that it does not name raises, so a new module cannot vanish
into ``builtins``.  Packages the ledger reports as one layer are mapped by
directory; ``network`` and ``dsm``, which it splits, file by file.
"""

from __future__ import annotations

from pathlib import PurePosixPath

from hostledger.spec import ENTRY_POINTS, LAYERS

__all__ = ["layer_of_file", "fold_profile", "entry_point_codes"]

_BY_PACKAGE = {
    "sim": "sim",
    "machine": "machine",
    "memory": "memory",
    "threads": "threads",
    "prefetch": "prefetch",
    "apps": "apps",
    "api": "api",
    "metrics": "metrics",
    "trace": "trace",
    "profile": "profile",
    "telemetry": "telemetry",
    "critpath": "critpath",
    "ft": "ft",
    # Harnesses that drive the public API from outside a run.  Nothing in
    # execute() calls them; they are named so that the map is total.
    "bench": "api",
    "chaos": "api",
    "experiments": "api",
}

_BY_FILE = {
    "__init__.py": "api",
    "errors.py": "api",
    "parallel.py": "api",
    "network/__init__.py": "network.other",
    "network/message.py": "network.other",
    "network/stats.py": "network.other",
    "network/link.py": "network.link",
    "network/switch.py": "network.switch",
    "network/network.py": "network.network",
    "network/transport.py": "network.transport",
    "network/faults.py": "network.faults",
    "dsm/__init__.py": "dsm.meta",
    "dsm/backend.py": "dsm.meta",
    "dsm/pagestate.py": "dsm.meta",
    "dsm/interval.py": "dsm.meta",
    "dsm/writenotice.py": "dsm.meta",
    "dsm/vclock.py": "dsm.meta",
    "dsm/protocol.py": "dsm.protocol",
    "dsm/hlrc.py": "dsm.hlrc",
    "dsm/sc.py": "dsm.sc",
    "dsm/locks.py": "dsm.locks",
    "dsm/barriers.py": "dsm.barriers",
}


def layer_of_file(relpath: str) -> str:
    """Layer of a source file given relative to ``src/repro`` (posix)."""
    layer = _BY_FILE.get(relpath)
    if layer is None:
        package = PurePosixPath(relpath).parts[0]
        if package in ("network", "dsm") or package not in _BY_PACKAGE:
            raise KeyError(f"src/repro/{relpath} is not in the ledger's file-to-layer map")
        layer = _BY_PACKAGE[package]
    return layer


def entry_point_codes() -> dict[object, str]:
    """Code object of every counted entry point -> its metric name."""
    import importlib
    import inspect

    codes: dict[object, str] = {}
    for metric, (module_name, qualname) in ENTRY_POINTS.items():
        module = importlib.import_module(module_name)
        if qualname is None:
            targets = [getattr(module, name) for name in module.__all__]
            targets = [fn for fn in targets if inspect.isfunction(fn)]
        else:
            target = module
            for part in qualname.split("."):
                target = getattr(target, part)
            targets = [target]
        for fn in targets:
            codes[fn.__code__] = metric
    return codes


def fold_profile(entries, repro_root: str, codes: dict[object, str]) -> dict[str, float]:
    """``cProfile.Profile.getstats()`` -> ``<layer>.self_s``, ``<layer>.calls``
    and the entry-point call counts, as one flat dict."""
    root = repro_root.rstrip("/") + "/"
    out: dict[str, float] = {f"{layer}.{kind}": 0 for layer in LAYERS for kind in ("self_s", "calls")}
    out.update({metric: 0 for metric in ENTRY_POINTS})
    for entry in entries:
        code = entry.code
        if isinstance(code, str):
            # C functions: "<built-in method numpy.array>", "<method 'append' of 'list' objects>".
            layer = "numpy" if "numpy" in code else "builtins"
        else:
            filename = code.co_filename
            if filename.startswith(root):
                layer = layer_of_file(filename[len(root):])
            elif "/numpy/" in filename:
                layer = "numpy"
            else:
                layer = "builtins"
            metric = codes.get(code)
            if metric is not None:
                out[metric] += entry.callcount
        out[f"{layer}.self_s"] += entry.inlinetime
        out[f"{layer}.calls"] += entry.callcount
    return out
