"""The package surface: every name ``effss`` re-exports is the object its
defining module holds, however the package and its modules were loaded."""

import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src"

#: every name the package re-exports, by the module that defines it
EXPORTS = {
    "grading": ("EffssError", "PresentationError", "TriDegree", "GeneratorSpec",
                "RewriteRule", "RingPresentation"),
    "engine": ("EngineError", "NotCertifiedError", "ObjectSpec", "PageGroup", "SliceSS",
               "Window"),
    "objects": ("ALL_OBJECTS", "ETA_LOCAL", "TRI_GRADED", "get_object", "spec_from_dict",
                "spec_to_dict"),
    "fiber": ("FiberError", "splitting_report", "val_3_pow_minus_1"),
    "eta": ("EtaObject", "compare", "eta_schedule", "get_eta", "parse_eta"),
    "assemble": ("AssembleError", "HiddenExtension", "HomotopyGroup", "LedgerError", "assemble",
                 "expand_ledger", "load_ledger", "order_pattern_check"),
    "charts": ("ChartDatum", "ChartError", "ChartSpec", "chart_data", "emit_svg",
               "parse_chart_text", "render_chart_text"),
    "verify": ("CHECKS", "run_check"),
}


@pytest.mark.parametrize("module", sorted(EXPORTS))
def test_every_reexported_name_is_its_modules_object(module):
    # the submodule is imported first, so a name it shares with the
    # package (``effss.assemble`` is the function) must survive that too
    mod = importlib.import_module("effss." + module)
    for name in EXPORTS[module]:
        ns = {}
        exec("from effss import %s" % name, ns)
        assert ns[name] is getattr(mod, name), (module, name)


#: run in a fresh interpreter: what importing the package and its command
#: line loads, and that a read-side name still resolves afterwards
FRESH_IMPORT = """
import sys
import effss, effss.cli
print(sorted(m for m in ("effss.assemble", "effss.charts", "effss.verify", "dataclasses")
             if m in sys.modules))
print(effss.chart_data is sys.modules["effss.charts"].chart_data)
"""


def test_importing_the_package_leaves_the_read_side_and_dataclasses_unloaded():
    path = [str(SRC)] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(path))
    proc = subprocess.run([sys.executable, "-c", FRESH_IMPORT], env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == ["[]", "True"]
