"""Run the Lie torus axiom checker over the bundled multiloop fixtures."""

from pathlib import Path

from multiloop.grading import graded_from_spec, parse_spec_file
from multiloop.lietorus import lie_torus_check

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"


def main():
    for name, spec in [("untwisted sl2", "sl2_untwisted.ml"),
                       ("quaternion sl2", "sl2_quaternion.ml"),
                       ("flipped sl3", "sl3_flip.ml")]:
        g = graded_from_spec(*parse_spec_file(
            (FIXTURES / spec).read_text(), 2))
        print("==", name, "==")
        print(lie_torus_check(g).serialize())
        print()


if __name__ == "__main__":
    main()
