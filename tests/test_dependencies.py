import json
import os
import subprocess
import sys
from pathlib import Path

import cavrate

# run in a fresh interpreter: the modules this suite has loaded would
# hide what importing cavrate brings in
_IMPORT_ALL = """
import importlib, json, pkgutil, sys
before = set(sys.modules)
package = importlib.import_module("cavrate")
for module in pkgutil.iter_modules(package.__path__, "cavrate."):
    importlib.import_module(module.name)
print(json.dumps(sorted(set(sys.modules) - before)))
"""


def test_every_module_imports_only_numpy_beyond_the_standard_library():
    src = str(Path(cavrate.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    out = subprocess.run([sys.executable, "-c", _IMPORT_ALL], env=env,
                         capture_output=True, text=True, check=True).stdout
    loaded = json.loads(out)
    assert "cavrate._gformat" in loaded and "cavrate.verify" in loaded
    tops = {name.partition(".")[0] for name in loaded}
    assert tops - set(sys.stdlib_module_names) == {"cavrate", "numpy"}
