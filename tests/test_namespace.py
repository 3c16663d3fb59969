"""The lazy package namespace: `import freeinv` loads no submodule, each
public name is imported from its module on first use, and a CLI command
loads only the modules it runs.  Each check runs in a fresh interpreter."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = str(Path(__file__).resolve().parents[1] / "src")


def run_python(code, tmp_path):
    env = dict(os.environ, PYTHONPATH=SRC + os.pathsep + os.environ.get("PYTHONPATH", ""))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=env, cwd=tmp_path, timeout=60)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


LOADED = "print(sorted(m for m in sys.modules if m.startswith('freeinv.')))"


def test_import_loads_no_submodule(tmp_path):
    assert run_python(f"import sys, freeinv; {LOADED}", tmp_path) == "[]\n"


def test_invert_leaves_the_other_modules_unloaded(tmp_path):
    out = run_python(
        "import sys, freeinv.cli\n"
        "assert freeinv.cli.main(['invert', '-g', '2', 'x1', 'x2 + x1^2']) == 0\n" + LOADED,
        tmp_path,
    )
    loaded = eval(out.splitlines()[-1])
    assert "freeinv.inverter" in loaded
    assert not {"freeinv.bipartite", "freeinv.mateval", "freeinv.deriv"} & set(loaded)


def test_every_public_name_is_its_module_attribute(tmp_path):
    out = run_python(
        "import importlib, freeinv\n"
        "for module, names in freeinv._EXPORTS.items():\n"
        "    owner = importlib.import_module(f'freeinv.{module}')\n"
        "    for name in names.split():\n"
        "        assert getattr(freeinv, name) is getattr(owner, name), name\n"
        "        assert name in vars(freeinv), name\n"
        "assert set(freeinv.__all__) <= set(dir(freeinv))\n"
        "assert len(freeinv.__all__) == len(set(freeinv.__all__))\n"
        "print(len(freeinv.__all__))",
        tmp_path,
    )
    assert int(out) == 62


def test_star_import_and_submodule_import(tmp_path):
    out = run_python(
        "import freeinv\n"
        "from freeinv import *\n"
        "missing = [name for name in freeinv.__all__ if name not in globals()]\n"
        "assert not missing, missing\n"
        "from freeinv import bipartite\n"
        "assert bipartite.injectivity_test is injectivity_test\n"
        "print(invert(parse_poly_map(['x1', 'x2 + x1^2'])).outcome)",
        tmp_path,
    )
    assert out == "inverse\n"


@pytest.mark.parametrize("name", ["no_such_name", "word_str"])
def test_unknown_attribute_raises_attribute_error(tmp_path, name):
    out = run_python(
        "import freeinv\n"
        f"print(hasattr(freeinv, {name!r}))\n"
        "try:\n"
        f"    getattr(freeinv, {name!r})\n"
        "except AttributeError as exc:\n"
        "    print(exc)",
        tmp_path,
    )
    assert out == f"False\nmodule 'freeinv' has no attribute {name!r}\n"
