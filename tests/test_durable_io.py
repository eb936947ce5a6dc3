"""Tripwire: ``repro.lab.store`` is the one module that writes whole files.

Every file the package creates, truncates, replaces or links goes through the
store (:func:`~repro.lab.store.replace_file`, :func:`~repro.lab.store.write_json`,
the ``O_EXCL`` markers, the hard-linked leases and done markers, the lease
renewal's in-place rewrite, the JSONL line logs), so there is one durable-I/O
seam whose crash points ``TestCrashPoints`` enumerates.  This scan fails if
any other module under ``src/repro`` calls

* ``open`` / ``io.open`` with a mode containing ``w`` or ``x`` (or a mode
  that is not a literal);
* ``os.open`` with ``O_CREAT`` but without ``O_APPEND``, or with ``O_TRUNC``;
* ``os.truncate`` or ``os.ftruncate``;
* ``os.replace`` or ``os.rename``;
* ``os.link`` or ``os.symlink``;
* anything in ``tempfile``.

Appends stay allowed: the trace sink's ``O_APPEND`` descriptor is not a
whole-file write.
"""

import ast
import os

import pytest

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
PACKAGE = os.path.join(SRC, "repro")
SEAM = os.path.join("repro", "lab", "store.py")


def _dotted(node):
    """``"os.replace"`` for ``os.replace``, ``"open"`` for ``open``; else ``None``."""
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        base = _dotted(node.value)
        return f"{base}.{node.attr}" if base else None
    return None


def _argument(call, position, name):
    if len(call.args) > position:
        return call.args[position]
    for keyword in call.keywords:
        if keyword.arg == name:
            return keyword.value
    return None


def _flag_names(node):
    return {
        getattr(part, "attr", getattr(part, "id", None)) for part in ast.walk(node)
    }


def whole_file_writes(source):
    """``(line, reason)`` for each whole-file write in ``source``."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            if any(alias.name.split(".")[0] == "tempfile" for alias in node.names):
                found.append((node.lineno, "imports tempfile"))
            continue
        if isinstance(node, ast.ImportFrom):
            module = node.module or ""
            if module.split(".")[0] == "tempfile":
                found.append((node.lineno, "imports from tempfile"))
            elif module == "os" and {a.name for a in node.names} & {"replace", "rename"}:
                found.append((node.lineno, "imports os.replace / os.rename"))
            elif module == "os" and {a.name for a in node.names} & {"link", "symlink"}:
                found.append((node.lineno, "imports os.link / os.symlink"))
            continue
        if not isinstance(node, ast.Call):
            continue
        name = _dotted(node.func)
        if name in ("open", "io.open"):
            mode = _argument(node, 1, "mode")
            if mode is None:
                continue  # read mode
            if not (isinstance(mode, ast.Constant) and isinstance(mode.value, str)):
                found.append((node.lineno, f"{name} with a non-literal mode"))
            elif "w" in mode.value or "x" in mode.value:
                found.append((node.lineno, f"{name}(..., {mode.value!r})"))
        elif name == "os.open":
            flags = _flag_names(_argument(node, 1, "flags") or ast.Constant(0))
            if "O_CREAT" in flags and "O_APPEND" not in flags:
                found.append((node.lineno, "os.open with O_CREAT and no O_APPEND"))
            elif "O_TRUNC" in flags:
                found.append((node.lineno, "os.open with O_TRUNC"))
        elif name in (
            "os.replace", "os.rename", "os.link", "os.symlink", "os.truncate", "os.ftruncate"
        ):
            found.append((node.lineno, name))
        elif name and name.split(".")[0] == "tempfile":
            found.append((node.lineno, name))
    return found


def package_modules():
    for directory, _, files in os.walk(PACKAGE):
        for name in sorted(files):
            if name.endswith(".py"):
                path = os.path.join(directory, name)
                yield os.path.relpath(path, SRC), path


def test_only_the_store_writes_whole_files():
    offenders = []
    for relative, path in package_modules():
        if relative == SEAM:
            continue
        with open(path, encoding="utf-8") as handle:
            for line, reason in whole_file_writes(handle.read()):
                offenders.append(f"{relative}:{line}: {reason}")
    assert offenders == [], (
        "write whole files and links through repro.lab.store "
        "(replace_file / write_json / _link_exclusive / _rewrite_in_place):\n"
        + "\n".join(offenders)
    )


def test_the_store_is_where_the_writes_are():
    with open(os.path.join(SRC, SEAM), encoding="utf-8") as handle:
        reasons = {reason for _, reason in whole_file_writes(handle.read())}
    assert {
        "os.replace", "os.link", "os.ftruncate", "os.open with O_CREAT and no O_APPEND"
    } <= reasons


@pytest.mark.parametrize(
    "source",
    [
        "open(p, 'w')",
        "open(p, mode='xb')",
        "import io\nio.open(p, 'w+', encoding='utf-8')",
        "open(p, m)",
        "import os\nos.open(p, os.O_WRONLY | os.O_CREAT | os.O_EXCL)",
        "import os\nos.open(p, flags=os.O_CREAT | os.O_TRUNC | os.O_WRONLY)",
        "import os\nos.replace(a, b)",
        "import os\nos.rename(a, b)",
        "from os import replace",
        "import os\nos.link(a, b)",
        "import os\nos.symlink(a, b)",
        "import os\nos.open(p, os.O_WRONLY | os.O_TRUNC)",
        "import os\nos.ftruncate(fd, 0)",
        "import os\nos.truncate(p, 0)",
        "from os import link",
        "import tempfile",
        "from tempfile import mkstemp",
    ],
)
def test_the_scan_catches_each_whole_file_write(source):
    assert whole_file_writes(source)


@pytest.mark.parametrize(
    "source",
    [
        "open(p)",
        "open(p, 'rb')",
        "open(p, 'a+b')",
        "import os\nos.open(p, os.O_WRONLY | os.O_APPEND | os.O_CREAT, 0o644)",
        "import os\nos.open(os.devnull, os.O_WRONLY)",
        "import os\nos.unlink(p)",
    ],
)
def test_the_scan_allows_reads_and_appends(source):
    assert whole_file_writes(source) == []
