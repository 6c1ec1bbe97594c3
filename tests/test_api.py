"""The public names: __all__ resolves, README's names are in it, and run
settings have one route."""

import inspect
import re
from dataclasses import fields
from pathlib import Path

import hilbertkunz
from hilbertkunz import hk

README = Path(__file__).resolve().parents[1] / "README.md"

# the names README lists as exported beside the quick tour
LISTED = ["delta_n", "tor1_length", "module_rank", "module_dimension",
          "buchberger", "normal_form", "colength", "syzygies",
          "krull_dimension"]


def test_every_name_in_all_resolves():
    missing = [name for name in hilbertkunz.__all__
               if not hasattr(hilbertkunz, name)]
    assert missing == []


def test_readme_names_are_public():
    tour = re.findall(r"\bhk\.([A-Za-z_]\w*)", README.read_text())
    assert {"RingPresentation", "series", "verify_closed_form"} <= set(tour)
    missing = [name for name in LISTED + tour
               if name not in hilbertkunz.__all__]
    assert missing == []


# run settings have one route: the ring presentation's budget.  These
# parameters repeated another route or were set by no caller.
REMOVED = {
    "budget": [hk.en_cyclic, hk.en_module, hk.series, hk.delta_n,
               hk.tor1_length, hk.module_rank, hk.module_dimension,
               hk._colength_mod_bracket, hk._projected_syzygies,
               hk._cokernel, hk.RingPresentation._colength_of_module,
               hk.RingPresentation._colength_of_ideal],
    "order": [hk.RingPresentation],
    "ring": [hk.check_m_primary, hilbertkunz.syzygies],
    "asserted_rank": [hk.ModulePresentation, hk.ModulePresentation.cyclic,
                      hk.ModulePresentation.coker,
                      hk.ModulePresentation.ideal_as_module],
}


# every rank and module dimension comes from the one staircase: the
# minor enumeration, its budget and the second relation builder are gone
GONE = ["cokernel_dimension", "matrix_rank_over_domain"]


def test_removed_routes_stay_removed():
    assert [name for name in GONE if name in hilbertkunz.__all__] == []
    assert "max_minors" not in {f.name for f in fields(hilbertkunz.Budget)}


def test_one_route_for_run_settings():
    back = sorted(f"{fn.__qualname__}({name}=)"
                  for name, fns in REMOVED.items() for fn in fns
                  if name in inspect.signature(fn).parameters)
    assert back == []
    assert "budget" in inspect.signature(hk.RingPresentation).parameters
    free = hk.ModulePresentation.coker(hk.RingPresentation(3, ["x"]), 1, [])
    assert not hasattr(free, "asserted_rank")
