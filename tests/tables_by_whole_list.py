"""Reference table renderers for the suite: the whole table in one string.

``cli`` renders the rows of each discriminant where they are computed and
writes the table chunk by chunk; md pads its cells only once the widest
cell of every chunk is known.  These functions render a finished list of
records in one go instead, as ``json.dumps`` and ``csv.writer`` see the
whole table.
"""
import csv
import io
import json
from operator import itemgetter

from surdsym.cli import JSON_KEYS


def render_csv(records, fields) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(fields)
    writer.writerows(records)
    return buf.getvalue()


def render_json(records, fields) -> str:
    keys = JSON_KEYS[fields]
    pick = itemgetter(*(fields.index(k) for k in keys))
    return json.dumps([dict(zip(keys, pick(rec))) for rec in records],
                      indent=2) + "\n"


def render_md(records, fields) -> str:
    rows = [[str(cell) for cell in rec] for rec in records]
    widths = [max(len(f), *(len(row[i]) for row in rows)) if rows else len(f)
              for i, f in enumerate(fields)]
    def line(cells):
        return "| " + " | ".join(c.ljust(w) for c, w in zip(cells, widths)) + " |"
    out = [line(fields), line(["-" * w for w in widths])]
    out.extend(line(row) for row in rows)
    return "\n".join(out) + "\n"


def render(records, fields, fmt: str) -> str:
    return {"csv": render_csv, "json": render_json, "md": render_md}[fmt](
        records, fields)
