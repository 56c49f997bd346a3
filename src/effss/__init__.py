"""Exact-arithmetic effective slice spectral sequences.

The package computes the slice E_1 pages of the very effective cover ko of
hermitian K-theory and of the fiber L of psi^3 - 1 on it, turns pages with
integer homology, carries the eta-inverted comparison, applies the hidden
extension ledger, assembles homotopy groups, and draws the charts.  All
arithmetic is over Python integers, so results are exact.

``import effss`` loads the build side only: presentations, the engine,
the objects, the fibers and the eta comparison.  The read side (assembly,
charts and the acceptance checks) loads on the first use of a name it
defines, so a process imports only the modules its work runs.
"""

__version__ = "0.1.0"

import sys
from types import ModuleType

from .grading import (  # noqa: F401
    AssembleError,
    ChartError,
    EffssError,
    LedgerError,
    PresentationError,
    TriDegree,
    GeneratorSpec,
    RewriteRule,
    RingPresentation,
)
from .engine import (  # noqa: F401
    EngineError,
    NotCertifiedError,
    ObjectSpec,
    PageGroup,
    SliceSS,
    Window,
)
from .objects import (  # noqa: F401
    ALL_OBJECTS,
    ETA_LOCAL,
    TRI_GRADED,
    get_object,
    spec_from_dict,
    spec_to_dict,
)
from .fiber import FiberError, splitting_report, val_3_pow_minus_1  # noqa: F401
from .eta import EtaObject, compare, eta_schedule, get_eta, parse_eta  # noqa: F401


def __getattr__(name: str):
    """A read-side name, its module loaded on first use (PEP 562)."""
    if name in ("HiddenExtension", "HomotopyGroup", "assemble", "expand_ledger", "load_ledger",
                "order_pattern_check"):
        from .assemble import (  # noqa: F401
            HiddenExtension,
            HomotopyGroup,
            assemble,
            expand_ledger,
            load_ledger,
            order_pattern_check,
        )
    elif name in ("ChartDatum", "ChartSpec", "chart_data", "emit_svg", "parse_chart_text",
                  "render_chart_text"):
        from .charts import (  # noqa: F401
            ChartDatum,
            ChartSpec,
            chart_data,
            emit_svg,
            parse_chart_text,
            render_chart_text,
        )
    elif name in ("CHECKS", "run_check"):
        from .verify import CHECKS, run_check  # noqa: F401
    else:
        raise AttributeError("module %r has no attribute %r" % (__name__, name))
    return locals()[name]


class _Package(ModuleType):
    """The package's module type.  Importing ``effss.assemble`` binds the
    submodule on the package; the package's ``assemble`` stays the
    function."""

    def __setattr__(self, name: str, value: object) -> None:
        if name == "assemble" and isinstance(value, ModuleType):
            value = value.assemble
        super().__setattr__(name, value)


sys.modules[__name__].__class__ = _Package
