"""No module of the package reads or writes bytes in the host's byte order.

A construct whose result depends on the host's byte order passes on a
little-endian box and breaks on a big-endian one, where only the s390x CI
job would see it: the prover once read its clause pattern fields with
`to_bytes(..., sys.byteorder)` and a native `memoryview.cast`, and on a
big-endian host nearly every honest proof was rejected.  This guard reads
the sources, so it fails on any host.  It refuses `sys.byteorder`,
`.cast(`, `array.array` and `from array import`, a `struct` call whose
format is not a literal starting with `<`, `>` or `!`, and `from struct
import`, which would hide such a call from the check.
"""

import ast
from pathlib import Path

import pytest

import seqproof

SOURCES = sorted(Path(seqproof.__file__).parent.glob("*.py"))
HOST_ORDER_TEXT = ("sys.byteorder", ".cast(", "array.array", "from array import", "from struct import")
STRUCT_CALLS = {"pack", "pack_into", "unpack", "unpack_from", "iter_unpack", "calcsize", "Struct"}
STANDARD_ORDER = ("<", ">", "!")


def _format_prefix(node: ast.expr) -> str | None:
    """The literal text a format argument starts with, or None if it is not a literal."""
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return node.value
    if isinstance(node, ast.JoinedStr) and node.values and isinstance(node.values[0], ast.Constant):
        return node.values[0].value
    return None


def host_order_constructs(source: str) -> list[str]:
    """Each host-order construct in source, as the text or call that shows it."""
    found = [text for text in HOST_ORDER_TEXT if text in source]
    for node in ast.walk(ast.parse(source)):
        if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)):
            continue
        owner = node.func.value
        if not (isinstance(owner, ast.Name) and owner.id == "struct" and node.func.attr in STRUCT_CALLS):
            continue
        prefix = _format_prefix(node.args[0]) if node.args else None
        if prefix is None or not prefix.startswith(STANDARD_ORDER):
            found.append(f"line {node.lineno}: struct.{node.func.attr} without a standard byte order")
    return found


def test_the_guard_sees_every_kind_of_host_order_construct():
    cases = {
        "x.to_bytes(4, sys.byteorder)": "sys.byteorder",
        "memoryview(b).cast('I')": ".cast(",
        "array.array('I', b)": "array.array",
        "from array import array": "from array import",
        "from struct import unpack": "from struct import",
        "struct.unpack('4I', b)": "struct.unpack without a standard byte order",
        "struct.Struct(f'{n}Q')": "struct.Struct without a standard byte order",
        "struct.pack('=I', 1)": "struct.pack without a standard byte order",
        "struct.unpack_from(fmt, b)": "struct.unpack_from without a standard byte order",
    }
    for source, shown in cases.items():
        assert any(shown in found for found in host_order_constructs(source)), source
    for source in ("struct.pack('>I', 1)", "struct.unpack(f'<{n}Q', b)", "struct.Struct('!BI')"):
        assert host_order_constructs(source) == [], source


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: path.name)
def test_no_module_uses_the_host_byte_order(path):
    assert host_order_constructs(path.read_text()) == []
