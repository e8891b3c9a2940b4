import pytest

from dgspec import (
    DgspecError,
    chord_cycle,
    complete_bidirected,
    period,
    petersen,
    random_strongly_connected,
    spectral_profile,
    undirected_cycle,
)


def named_corpus():
    """Deterministic structured corpus used across suites."""
    graphs = {f"complete_bidirected({n})": complete_bidirected(n) for n in range(3, 7)}
    graphs["undirected_cycle(5)"] = undirected_cycle(5)
    graphs["undirected_cycle(7)"] = undirected_cycle(7)
    graphs["chord_cycle(3)"] = chord_cycle(3)
    graphs["petersen"] = petersen()
    return graphs


def seeded_random_corpus(count=20):
    """First ``count`` seeded random digraphs (n in 4..9, p in {0.3, 0.5})
    that pass the aperiodicity and diagonalizability gates.

    The scan order (combo cycling, seed incrementing) is fixed, so the
    corpus is identical on every run.
    """
    combos = [(n, p) for n in range(4, 10) for p in (0.3, 0.5)]
    out = []
    seed = 0
    step = 0
    while len(out) < count:
        n, p = combos[step % len(combos)]
        step += 1
        seed += 1
        try:
            g = random_strongly_connected(n, p, seed=seed)
            if period(g) != 1:
                continue
            profile = spectral_profile(g)
        except DgspecError:
            continue
        out.append((f"random(n={n},p={p},seed={seed})", g, profile))
    return out


@pytest.fixture(scope="session")
def corpus():
    return named_corpus()


@pytest.fixture(scope="session")
def corpus_profiles(corpus):
    return {name: spectral_profile(g)
            for name, g in corpus.items()}


@pytest.fixture(scope="session")
def random_corpus():
    return seeded_random_corpus()
