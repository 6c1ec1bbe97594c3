"""The public names: __all__ resolves, and README's names are in it."""

import re
from pathlib import Path

import hilbertkunz

README = Path(__file__).resolve().parents[1] / "README.md"

# the names README lists as exported beside the quick tour
LISTED = ["delta_n", "tor1_length", "module_rank", "module_dimension",
          "buchberger", "normal_form", "colength", "syzygies",
          "krull_dimension", "matrix_rank_over_domain"]


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
