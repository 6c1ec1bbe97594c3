"""Cold set-up probe: bring one problem to the point where passes start.

Run as `python3 bench/ready.py <problem file> <ideal name>`.  It imports
the package, parses the problem, builds the defining Groebner basis and
the Krull dimension, and checks that the ideal is m-primary.  The caller
times the whole process, interpreter start included.
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from hilbertkunz import check_m_primary, parse_problem  # noqa: E402

problem = parse_problem(Path(sys.argv[1]).read_text(encoding="utf-8"))
problem.ring.defining_gb
problem.ring.dimension
sys.exit(0 if check_m_primary(problem.ideals[sys.argv[2]]) else 1)
