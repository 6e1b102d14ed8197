"""Deterministic synthetic corpus in the expected JSONL entity format.

Generates Wikidata-flavored entities (streets, paintings, humans,
communes, asteroids, albums, films, islands, roads, sculptures) whose
descriptions mix copyable rare names with frequent template words, the
regime the model is built for.  Property names deliberately share words
across facts ("located in ...", "country of ...", "place of ...") and
person names span several ordered tokens, so encoders that discard word
order inside a fact phrase have something to lose.

Everything derives from one seed; the same call returns byte-identical
corpora.
"""

from __future__ import annotations

import json

import numpy as np

_ONSETS = ["b", "br", "d", "dr", "f", "g", "gr", "h", "k", "kl", "l", "m",
           "n", "p", "r", "s", "st", "t", "tr", "v", "w", "z"]
_VOWELS = ["a", "e", "i", "o", "u", "ei", "ou", "ai"]
_CODAS = ["", "l", "n", "r", "s", "t", "k", "m", "nd", "rt"]

COUNTRIES = {
    "france": "french", "germany": "german", "japan": "japanese",
    "netherlands": "dutch", "spain": "spanish", "italy": "italian",
    "sweden": "swedish", "norway": "norwegian", "poland": "polish",
    "austria": "austrian", "denmark": "danish", "portugal": "portuguese",
}
OCCUPATIONS = ["painter", "writer", "politician", "singer", "composer",
               "journalist", "footballer", "physicist", "architect", "sculptor"]
GENRES = ["rock", "jazz", "folk", "pop", "blues", "metal", "soul", "punk"]


def _word(rng, syllables):
    parts = []
    for _ in range(syllables):
        parts.append(rng.choice(_ONSETS) + rng.choice(_VOWELS) + rng.choice(_CODAS))
    return "".join(parts)


def _pool(rng, size, syllables=(2, 3)):
    words = set()
    while len(words) < size:
        words.add(_word(rng, int(rng.integers(syllables[0], syllables[1] + 1))))
    return sorted(words)


class _Names:
    """Seeded name pools shared by all entity templates."""

    def __init__(self, rng):
        self.given = _pool(rng, 140, (2, 2))
        self.surname = _pool(rng, 260, (2, 3))
        self.town = _pool(rng, 220, (2, 3))
        self.municipality = _pool(rng, 90, (2, 3))
        self.region = _pool(rng, 90, (2, 3))
        self.prefecture = _pool(rng, 50, (2, 2))
        self.museum_town = _pool(rng, 70, (2, 2))
        self.observatory = _pool(rng, 40, (2, 2))
        self.label = _pool(rng, 60, (2, 2))
        self.sea = _pool(rng, 24, (2, 2))
        self.source = _pool(rng, 30, (2, 3))

    def person(self, rng):
        roll = rng.uniform()
        if roll < 0.45:
            return f"{rng.choice(self.given)} {rng.choice(self.surname)}"
        if roll < 0.75:
            return (f"{rng.choice(self.given)} {rng.choice(self.surname)} "
                    f"{rng.choice(self.surname)}")
        particle = rng.choice(["van", "de", "von"])
        return f"{rng.choice(self.given)} {particle} {rng.choice(self.surname)}"


def _year(rng):
    return str(int(rng.integers(1850, 2016)))


def _noise_facts(rng, names):
    pool = [
        ("described by source", f"{rng.choice(names.source)} encyclopedia"),
        ("named after", names.person(rng)),
        ("part of", rng.choice(names.region)),
        ("follows", rng.choice(names.town)),
        ("owned by", names.person(rng)),
        ("heritage designation", "national monument"),
    ]
    count = int(rng.integers(1, 4))
    picks = rng.choice(len(pool), size=count, replace=False)
    return [pool[i] for i in picks]


def _street(rng, names):
    town = rng.choice(names.town)
    municipality = rng.choice(names.municipality)
    country = rng.choice(sorted(COUNTRIES))
    facts = [
        ("instance of", "street"),
        ("location", town),
        ("located in the administrative territorial entity", municipality),
        ("country", country),
    ]
    description = (f"street in {town}" if rng.uniform() < 0.6
                   else f"street in {municipality} {country}")
    return facts, description


def _painting(rng, names):
    painter = names.person(rng)
    museum_town = rng.choice(names.museum_town)
    facts = [
        ("instance of", "painting"),
        ("creator", painter),
        ("collection", f"museum of {museum_town}"),
        ("location", museum_town),
        ("material used", "oil on canvas"),
        ("inception", _year(rng)),
    ]
    return facts, f"painting by {painter}"


def _human(rng, names):
    occupation = rng.choice(OCCUPATIONS)
    country = rng.choice(sorted(COUNTRIES))
    born = rng.choice(names.town)
    died = rng.choice(names.town)
    facts = [
        ("instance of", "human"),
        ("occupation", occupation),
        ("country of citizenship", country),
        ("place of birth", born),
        ("place of death", died),
    ]
    adjective = COUNTRIES[country]
    description = (f"{adjective} {occupation}" if rng.uniform() < 0.6
                   else f"{adjective} {occupation} born in {born}")
    return facts, description


def _commune(rng, names):
    department = rng.choice(names.region)
    facts = [
        ("instance of", "commune of france"),
        ("located in the administrative territorial entity", department),
        ("country", "france"),
    ]
    return facts, f"commune in {department} france"


def _asteroid(rng, names):
    astronomer = names.person(rng)
    year = _year(rng)
    facts = [
        ("instance of", "asteroid"),
        ("discoverer", astronomer),
        ("site of astronomical discovery", f"{rng.choice(names.observatory)} observatory"),
        ("time of discovery", year),
    ]
    return facts, f"asteroid discovered by {astronomer} in {year}"


def _album(rng, names):
    roll = rng.uniform()
    if roll < 0.5:
        band = f"the {rng.choice(names.surname)} band"
    elif roll < 0.8:
        band = names.person(rng)
    else:
        band = f"{rng.choice(names.surname)} {rng.choice(names.surname)}"
    facts = [
        ("instance of", "album"),
        ("performer", band),
        ("record label", f"{rng.choice(names.label)} records"),
        ("genre", rng.choice(GENRES)),
    ]
    return facts, f"album by {band}"


def _film(rng, names):
    director = names.person(rng)
    year = _year(rng)
    country = rng.choice(sorted(COUNTRIES))
    facts = [
        ("instance of", "film"),
        ("publication date", year),
        ("director", director),
        ("country of origin", country),
        ("cast member", names.person(rng)),
    ]
    return facts, f"{year} film directed by {director}"


def _island(rng, names):
    prefecture = rng.choice(names.prefecture)
    country = rng.choice(sorted(COUNTRIES))
    facts = [
        ("instance of", "island"),
        ("located in the administrative territorial entity", prefecture),
        ("country", country),
        ("located on terrain feature", f"{rng.choice(names.sea)} sea"),
    ]
    return facts, f"island in {prefecture} {country}"


def _road(rng, names):
    region = rng.choice(names.region)
    facts = [
        ("instance of", "road"),
        ("location", region),
        ("country", rng.choice(sorted(COUNTRIES))),
    ]
    return facts, f"road in {region}"


def _sculpture(rng, names):
    sculptor = names.person(rng)
    facts = [
        ("instance of", "sculpture"),
        ("creator", sculptor),
        ("location", f"museum of {rng.choice(names.museum_town)}"),
    ]
    return facts, f"sculpture by {sculptor}"


_TEMPLATES = [
    (_street, 0.12), (_painting, 0.12), (_human, 0.15), (_commune, 0.10),
    (_asteroid, 0.08), (_album, 0.10), (_film, 0.12), (_island, 0.06),
    (_road, 0.08), (_sculpture, 0.07),
]


def generate_corpus(n, seed=0):
    """``n`` entity records drawn from the weighted templates."""
    rng = np.random.default_rng(seed)
    names = _Names(rng)
    builders = [t for t, _ in _TEMPLATES]
    weights = np.array([w for _, w in _TEMPLATES])
    weights = weights / weights.sum()
    records = []
    for i in range(n):
        builder = builders[int(rng.choice(len(builders), p=weights))]
        facts, description = builder(rng, names)
        facts = list(facts) + _noise_facts(rng, names)
        records.append({
            "id": f"Q{100000 + i}",
            "facts": [{"property": p, "value": v} for p, v in facts],
            "description": description,
        })
    return records


def write_jsonl(records, path):
    with open(path, "w", encoding="utf-8") as handle:
        for record in records:
            handle.write(json.dumps(record, ensure_ascii=False) + "\n")
