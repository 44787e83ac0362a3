"""The public API, pinned.

tests/data/api.json records every public name the treedens package
exports (submodules excluded): the inspect.signature text of each
exported callable, the members of each exported enum, and the signature
of each public method that an exported class defines in treedens itself.
Methods inherited from builtins (str for the enums, ValueError for the
errors) are left out, as their signatures belong to the interpreter.  A
change that renames, drops or re-signs any of them fails here.  After a
deliberate API change, regenerate the file with
`PYTHONPATH=src python tests/test_api.py` and review the diff.
"""

import inspect
import json
import sys
from enum import Enum
from pathlib import Path
from types import ModuleType

import treedens

API = Path(__file__).parent / "data" / "api.json"


def _signature(obj) -> str | None:
    try:
        return str(inspect.signature(obj))
    except (TypeError, ValueError):  # some builtin types have none
        return None


def _methods(cls) -> dict:
    out = {}
    for base in reversed(cls.__mro__):
        if not base.__module__.startswith("treedens"):
            continue
        for name, attr in vars(base).items():
            if name.startswith("_"):
                continue
            if isinstance(attr, (staticmethod, classmethod)):
                out[name] = _signature(getattr(cls, name))
            elif inspect.isfunction(attr):
                out[name] = _signature(attr)
            elif hasattr(attr, "__get__") and hasattr(attr, "__set_name__"):
                out[name] = "property"  # property or cached_property
    return dict(sorted(out.items()))


def current_api() -> dict:
    api = {}
    for name in sorted(dir(treedens)):
        obj = getattr(treedens, name)
        if name.startswith("_") or isinstance(obj, ModuleType):
            continue
        if inspect.isclass(obj) and issubclass(obj, Enum):
            # an enum is called through the interpreter's EnumType, so its
            # members are its API rather than that signature
            members = [m.value for m in obj]
            api[name] = {"kind": "enum", "members": members, "methods": _methods(obj)}
        elif inspect.isclass(obj):
            api[name] = {"kind": "class", "signature": _signature(obj), "methods": _methods(obj)}
        elif callable(obj):
            api[name] = {"kind": "function", "signature": _signature(obj)}
        else:
            api[name] = {"kind": "value", "type": type(obj).__name__}
    return api


def test_public_api_unchanged():
    assert current_api() == json.loads(API.read_text())


if __name__ == "__main__":
    API.write_text(json.dumps(current_api(), indent=2) + "\n")
    sys.exit(0)
