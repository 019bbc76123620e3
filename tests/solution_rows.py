"""Row view of a search result, so that tests compare results exactly."""


def rows(sols) -> list[tuple]:
    """(p, value, weight, max_p, meets_theorem_radius) of each quintuple of a
    QuintetSolutions, p a tuple and every field a Python value: two results
    are the same iff their rows are equal."""
    return list(zip(map(tuple, sols.p.tolist()), sols.value.tolist(),
                    sols.weight.tolist(), sols.max_p.tolist(),
                    sols.meets_theorem_radius.tolist()))
