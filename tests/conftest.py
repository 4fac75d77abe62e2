from pathlib import Path

import pytest

from ballotlab import CondensedProfile

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"


def alaska() -> CondensedProfile:
    """The 2022 Alaska special election, from the published condensed counts."""
    return CondensedProfile(
        ("Begich", "Palin", "Peltola"),
        {
            ("Begich",): 11179,
            ("Palin",): 21139,
            ("Peltola",): 23647,
            ("Begich", "Palin"): 27258,
            ("Begich", "Peltola"): 15572,
            ("Palin", "Begich"): 34117,
            ("Palin", "Peltola"): 3683,
            ("Peltola", "Begich"): 47429,
            ("Peltola", "Palin"): 4727,
            frozenset(("Begich", "Palin")): 86,
            frozenset(("Begich", "Peltola")): 62,
            frozenset(("Palin", "Peltola")): 30,
            frozenset(("Begich", "Palin", "Peltola")): 56,
        },
    )


@pytest.fixture
def alaska_profile() -> CondensedProfile:
    return alaska()


@pytest.fixture
def alaska_csv() -> Path:
    return FIXTURES / "alaska_special_2022.condensed.csv"
