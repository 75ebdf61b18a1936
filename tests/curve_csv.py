"""Reading a curve CSV back into rows, for tests that check printed output."""

from neoms.output import CURVE_HEADER


def parse_curve_csv(text: str) -> tuple[list[str], list[dict]]:
    """Read back a curve CSV: (comment lines without '#', data rows)."""
    comments: list[str] = []
    rows: list[dict] = []
    header_seen = False
    for line in text.splitlines():
        if not line.strip():
            continue
        if line.startswith("#"):
            comments.append(line[1:].strip())
            continue
        if not header_seen:
            if line != CURVE_HEADER:
                raise ValueError(f"unexpected header {line!r}")
            header_seen = True
            continue
        power, idx, x, stable, q1, q2 = line.split(",")
        rows.append({
            "power_W": float(power),
            "branch_index": int(idx),
            "photon_number": float(x),
            "stable": stable == "true",
            "q1_m": float(q1),
            "q2_m": float(q2),
        })
    if not header_seen:
        raise ValueError("no header line found")
    return comments, rows
