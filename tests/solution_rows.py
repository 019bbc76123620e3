"""Row views of results and csv.writer's text of rows, so that tests compare
results and output files exactly."""

import csv
import io


def rows(sols) -> list[tuple]:
    """(p, value, weight, max_p, meets_theorem_radius) of each quintuple of a
    QuintetSolutions, p a tuple and every field a Python value: two results
    are the same iff their rows are equal."""
    return list(zip(map(tuple, sols.p.tolist()), sols.value.tolist(),
                    sols.weight.tolist(), sols.max_p.tolist(),
                    sols.meets_theorem_radius.tolist()))


def csv_writer_text(header: list[str], rows) -> str:
    """csv.writer's document with "\n" line ends: the oracle of the CSV
    renderer in psquintet._io."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue()
