"""Run the Lie torus axiom checker over every bundled multiloop fixture
(`fixtures/*.ml`)."""

from pathlib import Path

from multiloop.grading import graded_from_spec, parse_spec_file
from multiloop.lietorus import lie_torus_check

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"


def main():
    for path in sorted(FIXTURES.glob("*.ml")):
        g = graded_from_spec(*parse_spec_file(path.read_text(), 2))
        print("==", path.name, "==")
        print(lie_torus_check(g).serialize())
        print()


if __name__ == "__main__":
    main()
