"""Deterministic synthetic corpus generator with plantable rank effects.

Test scaffolding only: the generator produces referentially intact rosters,
publications and bylines whose expected output per scientist is scaled by a
configurable multiplier per academic rank, so end-to-end runs can verify that
the pipeline recovers a known ordering. Randomness comes from numpy's PCG64
generator seeded from the config; the same config always yields the same rows
(and therefore byte-identical files).

Publication counts for active scientists are ``1 + negative binomial`` with
mean ``pubs_per_scientist * rank_effect[rank]`` and a geometric-style tail
controlled by ``count_dispersion``; citation counts are a gamma-Poisson
mixture (negative binomial), giving the right-skewed cells where medians sit
at or below means.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Mapping

import numpy as np

from .corpus import Corpus, RANKS, Rank, decode, load_corpus
from .fileio import write_records

__all__ = ["SynthConfig", "generate", "write_corpus_csv"]

_AGE_RANGE = {Rank.FULL: (48, 68), Rank.ASSOCIATE: (38, 60), Rank.ASSISTANT: (30, 52)}
_RANK_TAG = {Rank.FULL: "fp", Rank.ASSOCIATE: "ap", Rank.ASSISTANT: "rp"}


@dataclass(frozen=True)
class SynthConfig:
    seed: int = 20240409
    n_uda: int = 9
    sds_per_uda: int = 3
    scientists_per_sds: Mapping[Rank, int] = field(
        default_factory=lambda: {Rank.FULL: 20, Rank.ASSOCIATE: 20, Rank.ASSISTANT: 20}
    )
    pubs_per_scientist: float = 8.0
    count_dispersion: float = 0.2
    citation_dispersion: float = 0.5
    citation_mean: float = 6.0
    authors_per_pub: float = 4.0
    rank_effect: Mapping[Rank, float] = field(
        default_factory=lambda: {Rank.FULL: 1.3, Rank.ASSOCIATE: 1.15, Rank.ASSISTANT: 1.0}
    )
    inactive_fraction: Mapping[Rank, float] = field(
        default_factory=lambda: {Rank.FULL: 0.04, Rank.ASSOCIATE: 0.10, Rank.ASSISTANT: 0.18}
    )
    years: tuple[int, int] = (2004, 2008)
    categories_per_pub: int = 2
    n_categories: int = 10

    def validate(self) -> None:
        def fail(name: str, detail: str):
            raise ValueError(f"invalid config field '{name}': {detail}")

        if self.n_uda < 1:
            fail("n_uda", "must be >= 1")
        if self.sds_per_uda < 1:
            fail("sds_per_uda", "must be >= 1")
        for rank in RANKS:
            if self.scientists_per_sds.get(rank, 0) < 1:
                fail("scientists_per_sds", f"must be >= 1 for {rank.value}")
            effect = self.rank_effect.get(rank)
            if effect is None or effect < 0:
                fail("rank_effect", f"must be >= 0 for {rank.value}")
            frac = self.inactive_fraction.get(rank)
            if frac is None or not 0.0 <= frac <= 1.0:
                fail("inactive_fraction", f"must be in [0, 1] for {rank.value}")
            if effect > 0 and self.pubs_per_scientist * effect < 1.0:
                fail("pubs_per_scientist", "mean publication count must be >= 1 for active ranks")
        if self.pubs_per_scientist <= 0:
            fail("pubs_per_scientist", "must be positive")
        if self.count_dispersion <= 0:
            fail("count_dispersion", "must be positive")
        if self.citation_dispersion <= 0:
            fail("citation_dispersion", "must be positive")
        if self.citation_mean <= 0:
            fail("citation_mean", "must be positive")
        if self.authors_per_pub < 1:
            fail("authors_per_pub", "must be >= 1")
        if self.years[0] > self.years[1]:
            fail("years", "start year after end year")
        if self.categories_per_pub < 1:
            fail("categories_per_pub", "must be >= 1")
        if self.n_categories < self.categories_per_pub:
            fail("n_categories", "must be >= categories_per_pub")


def _negative_binomial(rng: np.random.Generator, mean: float, dispersion: float) -> int:
    # gamma-Poisson mixture: mean `mean`, variance mean + dispersion * mean^2
    lam = rng.gamma(shape=1.0 / dispersion, scale=mean * dispersion)
    return int(rng.poisson(lam))


def generate(config: SynthConfig) -> Corpus:
    """Generate a validated corpus from the config, deterministically."""
    config.validate()
    rng = np.random.default_rng(config.seed)
    year_lo, year_hi = config.years
    ref_year = year_hi + 1
    categories = [f"CAT{i:02d}" for i in range(1, config.n_categories + 1)]
    universities = [f"U{i:02d}" for i in range(1, 13)]

    scientists: list[dict] = []
    publications: list[dict] = []
    authorships: list[dict] = []
    pub_serial = 0

    for u in range(1, config.n_uda + 1):
        uda = f"UDA{u:02d}"
        for s in range(1, config.sds_per_uda + 1):
            sds = f"{uda}-S{s}"
            for rank in RANKS:
                effect = config.rank_effect[rank]
                for i in range(1, config.scientists_per_sds[rank] + 1):
                    sid = f"{sds}.{_RANK_TAG[rank]}{i:03d}"
                    lo, hi = _AGE_RANGE[rank]
                    age = int(rng.integers(lo, hi + 1))
                    home = universities[int(rng.integers(0, len(universities)))]
                    scientists.append(
                        {
                            "scientist_id": sid,
                            "sds_code": sds,
                            "uda_code": uda,
                            "rank": rank.value,
                            "birth_year": ref_year - age,
                        }
                    )
                    if rng.random() < config.inactive_fraction[rank] or effect == 0:
                        continue
                    mean_pubs = config.pubs_per_scientist * effect
                    n_pubs = 1 + _negative_binomial(rng, mean_pubs - 1.0, config.count_dispersion)
                    for _ in range(n_pubs):
                        pub_serial += 1
                        pub_id = f"P{pub_serial:06d}"
                        year = int(rng.integers(year_lo, year_hi + 1))
                        n_authors = 1 + int(rng.poisson(config.authors_per_pub - 1.0))
                        cats = rng.choice(categories, size=config.categories_per_pub, replace=False)
                        age_factor = (ref_year - year) / 3.0
                        citations = _negative_binomial(
                            rng, config.citation_mean * effect * age_factor, config.citation_dispersion
                        )
                        publications.append(
                            {
                                "pub_id": pub_id,
                                "year": year,
                                "citation_count": citations,
                                "subject_categories": ";".join(sorted(cats)),
                                "author_count": n_authors,
                            }
                        )
                        position = 1 + int(rng.integers(0, n_authors))
                        affils = []
                        for pos in range(1, n_authors + 1):
                            if pos == position:
                                affils.append(home)
                            elif rng.random() < 0.4:
                                affils.append(home)
                            else:
                                affils.append(universities[int(rng.integers(0, len(universities)))])
                        # exercise the recognizable byline patterns
                        pattern = rng.random()
                        if n_authors >= 2 and position not in (1, n_authors):
                            if pattern < 0.35:
                                affils[-1] = affils[0]
                            elif pattern < 0.70 and n_authors >= 4:
                                pool = [x for x in universities if x != home][:4]
                                affils[0], affils[1], affils[-2], affils[-1] = pool
                        if rng.random() < 0.05:
                            affils[int(rng.integers(0, n_authors))] = None
                        for pos in range(1, n_authors + 1):
                            affil = affils[pos - 1]
                            authorships.append(
                                {
                                    "pub_id": pub_id,
                                    "position": pos,
                                    "scientist_id": sid if pos == position else "",
                                    "affiliation_id": "" if affil is None else affil,
                                }
                            )
    return load_corpus(scientists, publications, authorships)


def write_corpus_csv(corpus: Corpus, out_dir: str | Path) -> dict[str, Path]:
    """Write the three corpus files in their canonical column order, from the
    corpus's columns; a missing optional value is written empty."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    tables = {
        "scientists": (
            ["scientist_id", "sds_code", "uda_code", "rank", "birth_year"],
            corpus.scientist_ids,
            (corpus.scientist_sds, corpus.sds_codes),
            (corpus.scientist_uda, corpus.udas),
            (corpus.scientist_rank, [rank.value for rank in RANKS]),
            corpus.scientist_birth_year,
        ),
        "publications": (
            ["pub_id", "year", "citation_count", "subject_categories", "author_count"],
            corpus.pub_ids,
            corpus.pub_year,
            corpus.pub_citations,
            (corpus.pub_categories, [";".join(cats) for cats in corpus.category_sets]),
            corpus.pub_author_count,
        ),
        "authorships": (
            ["pub_id", "position", "scientist_id", "affiliation_id"],
            (corpus.auth_pub, corpus.pub_ids),
            corpus.auth_position,
            (corpus.auth_scientist, corpus.scientist_ids),
            (corpus.auth_affiliation, corpus.affiliations),
        ),
    }
    return {
        name: write_records(
            out_dir / f"{name}.csv",
            fields,
            zip(*map(decode, columns)),
        )
        for name, (fields, *columns) in tables.items()
    }
