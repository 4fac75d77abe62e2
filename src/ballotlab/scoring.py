"""The behavioral model that approval and STAR share, on a per-method scale.

The behavioral model: bullet voters support exactly their candidate;
two-way top-overvote voters support both pair members; all-way
overvoters are excluded; voters with a full ranking always support their
first choice, never their third, and give their second choice a
per-group value on a :class:`Scale`.  :mod:`ballotlab.approval` puts the
model on the approval scale (one approval per supported candidate, a
second-choice approval rate ``p`` in [0, 1]) and :mod:`ballotlab.star`
on a star scale.  Group scores are therefore affine in each value, and
everything here is computed in exact rational arithmetic -- rounding
happens only at display time.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm

from .core import CondensedProfile, Record
from .rational import exact_rational
from .report import CSV, Column, Report, emit_range_plot_data

Group = tuple[str, str]  # (first choice, second choice)


def require_roster(profile: CondensedProfile) -> None:
    if not 2 <= len(profile.candidates) <= 3:
        raise ValueError(f"this model needs 2 or 3 candidates, got {len(profile.candidates)}")


class Scale(Record):
    """The model's scores on one voting method's scale.

    A supported first choice scores ``first_weight``; a second choice
    scores its group's value in [``low``, ``high``], a whole number of
    hundredths when ``hundredths`` is set.  ``noun`` names one value in
    messages and ``given`` names what a scenario gives per group.
    """

    first_weight: int
    low: int
    high: int
    hundredths: bool
    noun: str
    given: str

    def resolution(self, value: Fraction, what: str) -> Fraction:
        """``value``, if the scale's resolution holds it; ``what`` names it in errors."""
        if self.hundredths and 100 % value.denominator:
            raise ValueError(f"{what} must be a whole number of hundredths, got {value}")
        return value

    def value(self, value, what: str) -> Fraction:
        """``value`` as an exact point of the scale; ``what`` names it in errors."""
        value = exact_rational(value, what)
        if not self.low <= value <= self.high:
            raise ValueError(f"{what} must lie in [{self.low}, {self.high}], got {value}")
        return self.resolution(value, what)

    def grid(self, step, start, end) -> tuple[Fraction, Fraction, Fraction]:
        """A sweep grid's checked ``(step, start, end)``, with ``0 < step <= high - low``."""
        step = exact_rational(step, "grid step")
        if not 0 < step <= self.high - self.low:
            raise ValueError(f"grid step must lie in (0, {self.high - self.low}], got {step}")
        step = self.resolution(step, "grid step")
        start, end = self.value(start, "grid start"), self.value(end, "grid end")
        if start > end:
            raise ValueError("grid start must not exceed grid end")
        return step, start, end


class Scenario(Record):
    """Per-group second-choice values, held in the subclass's one field.

    Each subclass sets the class attribute ``scale``, which checks the
    values and gives unlisted groups their floor value.  Every key must be
    a ``(first, second)`` tuple of two names.
    """

    def __post_init__(self) -> None:
        (field,) = self.__slots__
        checked = {}
        for g, v in getattr(self, field).items():
            if not isinstance(g, tuple) or [type(c) for c in g] != [str, str]:
                raise ValueError(f"{self.scale.given} given for {g!r}, not a pair of names")
            checked[g] = self.scale.value(v, f"{self.scale.noun} for {g[0]}>{g[1]}")
        object.__setattr__(self, field, checked)

    @classmethod
    def uniform(cls, profile: CondensedProfile, value):
        return cls(dict.fromkeys(profile.ranking_groups(), value))

    @classmethod
    def for_profile(cls, profile: CondensedProfile, values: dict[Group, object]):
        """Scenario over all of the profile's groups; unlisted groups get the scale's floor."""
        return cls(cls.resolve(profile, values))

    @classmethod
    def resolve(cls, profile: CondensedProfile, values: dict[Group, object]) -> dict:
        """``values`` for every group of the profile; an unknown group raises ``ValueError``."""
        groups = profile.ranking_groups()
        unknown = set(values) - set(groups)
        if unknown:
            raise ValueError(f"{cls.scale.given} given for unknown group {'>'.join(min(unknown))}")
        return {g: values.get(g, cls.scale.low) for g in groups}

    def scores(self, profile: CondensedProfile,
               lines: tuple[dict[str, int], dict[Group, int]] | None = None) -> dict[str, Fraction]:
        """Exact score per candidate: guaranteed support plus each group's second choices.

        ``lines`` is the profile's :func:`score_lines` ``base`` and
        :meth:`~CondensedProfile.group_sizes`, if the caller has them already.
        """
        require_roster(profile)
        (field,) = self.__slots__
        if lines is None:
            sizes = profile.group_sizes()
            lines = score_lines(profile, self.scale.first_weight, sizes)[0], sizes
        base, sizes = lines
        scores = {c: Fraction(n) for c, n in base.items()}
        for group, value in self.resolve(profile, getattr(self, field)).items():
            scores[group[1]] += value * sizes[group]
        return scores


class ScoreRange(Record):
    """Score per candidate with every second choice at the scale's floor, and at its cap."""

    minimum: dict[str, int]
    maximum: dict[str, int]


def score_lines(profile: CondensedProfile, first_weight: int,
                sizes: dict[Group, int] | None = None) -> tuple[dict[str, int], dict[str, int]]:
    """Each candidate's score ``base + slope * t`` at a uniform second-choice value ``t``.

    ``base`` is the guaranteed support, ``first_weight`` per first choice
    and per two-way top overvote naming the candidate (an all-way one
    supports no one); ``slope`` counts the rankings placing the candidate
    second, from ``sizes`` (the profile's group sizes) when given.  Approval
    weighs a first choice 1 with ``t`` the rate, STAR 5 stars with ``t`` the
    rating.
    """
    base = profile.top_choices(profile.candidates)
    for pair, n in profile.two_way_overvotes():
        for c in pair:
            base[c] += n
    slope = dict.fromkeys(profile.candidates, 0)
    for (_, second), n in (profile.group_sizes() if sizes is None else sizes).items():
        slope[second] += n
    return {c: first_weight * n for c, n in base.items()}, slope


def check_pair(profile: CondensedProfile, a: str, b: str, roles: str) -> None:
    """Refuse one candidate named twice, or one off the roster; ``roles`` names the pair."""
    if a == b:
        raise ValueError(f"{roles} must differ")
    for c in (a, b):
        if c not in profile.candidates:
            raise ValueError(f"{c!r} is not on the roster")


def score_range(profile: CondensedProfile, scale: Scale) -> ScoreRange:
    """Each candidate's score with every second choice at the scale's floor, and at its cap."""
    require_roster(profile)
    base, slope = score_lines(profile, scale.first_weight)
    return ScoreRange({c: b + scale.low * slope[c] for c, b in base.items()},
                      {c: b + scale.high * slope[c] for c, b in base.items()})


def sweep(profile: CondensedProfile, scale: Scale, grid_step, start, end,
          winners) -> list[tuple[Fraction, tuple[str, ...]]]:
    """``(t, winners(scores))`` at every uniform value ``t`` of a grid on ``scale``.

    Closed form: each grid point is ``t = n/d`` over one denominator ``d =
    lcm(start.denominator, step.denominator)``, and ``scores`` holds the
    integers ``base * d + slope * n`` (see :func:`score_lines`): ``d`` times
    the scores at ``t``, so the same order and ties.  The lines and ``base *
    d`` are computed once per call, whatever the grid size.
    """
    require_roster(profile)
    step, start, end = scale.grid(grid_step, start, end)
    base, slope = score_lines(profile, scale.first_weight)
    d = lcm(start.denominator, step.denominator)
    base = {c: b * d for c, b in base.items()}
    first, n_step = int(start * d), int(step * d)
    return [(Fraction(n, d), winners({c: b + slope[c] * n for c, b in base.items()}))
            for n in range(first, first + n_step * ((end - start) // step + 1), n_step)]


# Helpers of the approval and STAR command-line report builders.
def roster_group(profile: CondensedProfile, group: Group) -> Group:
    """The profile's group spelled ``first>second`` as ``group`` is (``group`` if none, a
    ``ValueError`` if two): a flag splits at its first ``>``, a raw CVR's names may hold one."""
    found = [g for g in profile.ranking_groups() if ">".join(g) == ">".join(group)]
    if len(found) > 1:
        raise ValueError(f"group {'>'.join(group)} is ambiguous: it reads as "
                         + ", or as ".join(f"{a!r} then {b!r}" for a, b in found))
    return found[0] if found else group


def scenario_rates(args, profile: CondensedProfile, flag: str) -> dict[Group, object]:
    """The per-group values of ``--<flag>`` and the repeatable ``--<flag>-group``."""
    rates: dict[Group, object] = {}
    uniform = getattr(args, flag)
    if uniform is not None:
        value = exact_rational(uniform, f"--{flag}")
        rates = {g: value for g in profile.ranking_groups()}
    given: set[Group] = set()
    for group, raw in getattr(args, f"{flag}_group") or []:
        group = roster_group(profile, group)
        if group in given:
            raise ValueError(f"--{flag}-group repeats group {group[0]}>{group[1]}")
        given.add(group)
        rates[group] = exact_rational(raw, f"--{flag}-group")
    return rates


def range_table(args, profile: CondensedProfile, scale: Scale, title: str) -> Report | bytes:
    """``approval range`` and ``star range``: :func:`score_range` on the model's scale."""
    if args.plot_data and args.format not in (None, CSV):
        raise ValueError(f"--plot-data writes CSV and cannot take --format {args.format}")
    rng = score_range(profile, scale)
    if args.plot_data:
        return emit_range_plot_data(rng.minimum, profile, scale.high - scale.low)
    return Report(title, (Column("candidate"), Column("min", "int"), Column("max", "int")),
                  [(c, rng.minimum[c], rng.maximum[c]) for c in profile.candidates])
