"""Deterministic templated biography corpus for desk-scale training runs."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import Attribute, Corpus, Example, Table

FIRST_NAMES = tuple(
    "Alda Bram Cato Delia Edmund Falk Greta Hollis Imre Jola Keran Lisbet "
    "Marek Nola Osric Petra Quill Rasa Soren Talia Ulric Vesna Wilmot Xenia "
    "Yorick Zelda Arlen Brynn".split()
)

LAST_NAMES = tuple(
    "Ashgrove Birchall Coldwater Dunmore Eastley Fenwick Garrow Hatheway "
    "Ironwood Jessop Kincaid Larkspur Mossbank Northcote Oakhurst Pemberly "
    "Quarrington Redfern Stonebridge Thornbury Underhill Vexley Westbrook "
    "Yarrow Zellweger Amblend Bellflower Cranmore".split()
)

CITIES = (
    "Lunden", "Varano", "Kestwick", "Port Ellum", "Miravel", "Ostergate",
    "Calder Bay", "Trevena", "Holmsund", "Arkose", "Bellmare", "Quarrytown",
    "New Skellig", "Fennimore", "Dunwich", "Veleda", "Rostvik", "Marlowe Point",
)

MONTHS = (
    "January", "February", "March", "April", "May", "June",
    "July", "August", "September", "October", "November", "December",
)

YEARS = tuple(str(y) for y in range(1900, 1996, 4))  # 24 distinct years
DAYS = tuple(str(d) for d in range(1, 29))

OCCUPATIONS = (
    "physicist", "sculptor", "botanist", "archivist", "cartographer",
    "violinist", "geologist", "novelist", "astronomer", "engraver",
    "meteorologist", "historian", "linguist", "chemist",
)

NATIONALITIES = (
    "Velandrian", "Ostrian", "Kelmark", "Surovian", "Tandish", "Mirenese",
    "Haldan", "Corvessian", "Lundic", "Arkosian",
)

TEAMS = (
    "Rivertown Rovers", "Kestwick Harriers", "Ostergate Albion",
    "Bellmare Athletic", "Holmsund Wanderers", "Arkose City",
    "Trevena United", "Quarrytown Swifts",
)

AWARDS = (
    "Silver Compass Medal", "Orion Prize", "Meridian Fellowship",
    "Order of the Golden Reed", "Calder Laurel", "Aurora Medal",
)

FIELDS = (
    "optics", "glaciology", "phonetics", "cartography", "astronomy",
    "mineralogy", "hydrology", "etymology",
)

# Non-stop-word connective tokens the templates introduce; everything else in
# a reference is either a stop word or a table value token.
FUNCTION_WORDS = ("born", "played", "won", "known")


# Each optional attribute (nationality, team, award, field) appears in a
# table with this probability.
OPTIONAL_PROB = 0.55


@dataclass(frozen=True)
class TemplateSpec:
    """The corpus seed: output is a pure function of (seed, index)."""

    seed: int = 0


def _pick(rng: np.random.Generator, pool: tuple[str, ...]) -> str:
    return pool[int(rng.integers(len(pool)))]


def generate_example(spec: TemplateSpec, index: int) -> Example:
    """Build example #index: a 4-8 attribute table and its faithful biography."""
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence([spec.seed, index])))
    first = _pick(rng, FIRST_NAMES)
    last = _pick(rng, LAST_NAMES)
    day, month, year = _pick(rng, DAYS), _pick(rng, MONTHS), _pick(rng, YEARS)
    city = _pick(rng, CITIES)
    occupation = _pick(rng, OCCUPATIONS)

    has_nationality = rng.uniform() < OPTIONAL_PROB
    has_team = rng.uniform() < OPTIONAL_PROB
    has_award = rng.uniform() < OPTIONAL_PROB
    has_field = rng.uniform() < OPTIONAL_PROB
    nationality = _pick(rng, NATIONALITIES) if has_nationality else None
    team = _pick(rng, TEAMS) if has_team else None
    award = _pick(rng, AWARDS) if has_award else None
    field_of_work = _pick(rng, FIELDS) if has_field else None

    attributes = [
        Attribute("Name_ID", (first, last)),
        Attribute("Date_of_birth", (day, month, year)),
        Attribute("Place_of_birth", tuple(city.split())),
        Attribute("Occupation", (occupation,)),
    ]
    if nationality:
        attributes.append(Attribute("Country_of_citizenship", (nationality,)))
    if team:
        attributes.append(Attribute("Member_of_sports_team", tuple(team.split())))
    if award:
        attributes.append(Attribute("Award_received", tuple(award.split())))
    if field_of_work:
        attributes.append(Attribute("Field_of_work", (field_of_work,)))

    # Sentence templates: 2 are always realized, the third and fourth only
    # when their attributes exist, so each reference spans 2-4 of them.
    words: list[str] = [first, last, "was", "born", "on", day, month, year, "in"]
    words += city.split()
    words.append(".")
    if nationality:
        words += [last, "is", "a", nationality, occupation, "."]
    else:
        words += [last, "is", "a", occupation, "."]
    if team and award:
        words += [last, "played", "for", *team.split(), "and", "won", "the", *award.split(), "."]
    elif team:
        words += [last, "played", "for", *team.split(), "."]
    elif award:
        words += [last, "won", "the", *award.split(), "."]
    if field_of_work:
        words += [last, "is", "known", "for", field_of_work, "."]

    return Example(Table(tuple(attributes)), tuple(words))


def generate(spec: TemplateSpec, n: int) -> Corpus:
    if n < 1:
        raise ValueError("need n >= 1 examples")
    return [generate_example(spec, i) for i in range(n)]
