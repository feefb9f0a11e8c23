"""The published minimal-order table, embedded as golden reference data.

One hundred rows of (d, C(d), p_d) where C(d) is the least order of a
circulant graph of algebraic degree d and p_d is the smallest prime
congruent to 1 mod 2d.  The strict flag (C(d) < p_d) is derived; it holds
for exactly 28 of the 100 degrees.  table_mismatch is the one comparison of
a computed table against these rows.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional, Sequence

if TYPE_CHECKING:
    from .mintable import TableRow

GOLDEN_TABLE: tuple[tuple[int, int, int], ...] = (
    (1, 1, 3),
    (2, 5, 5),
    (3, 7, 7),
    (4, 15, 17),
    (5, 11, 11),
    (6, 13, 13),
    (7, 29, 29),
    (8, 17, 17),
    (9, 19, 19),
    (10, 25, 41),
    (11, 23, 23),
    (12, 35, 73),
    (13, 53, 53),
    (14, 29, 29),
    (15, 31, 31),
    (16, 51, 97),
    (17, 103, 103),
    (18, 37, 37),
    (19, 191, 191),
    (20, 41, 41),
    (21, 43, 43),
    (22, 69, 89),
    (23, 47, 47),
    (24, 65, 97),
    (25, 101, 101),
    (26, 53, 53),
    (27, 81, 109),
    (28, 87, 113),
    (29, 59, 59),
    (30, 61, 61),
    (31, 311, 311),
    (32, 85, 193),
    (33, 67, 67),
    (34, 137, 137),
    (35, 71, 71),
    (36, 73, 73),
    (37, 149, 149),
    (38, 229, 229),
    (39, 79, 79),
    (40, 123, 241),
    (41, 83, 83),
    (42, 129, 337),
    (43, 173, 173),
    (44, 89, 89),
    (45, 181, 181),
    (46, 141, 277),
    (47, 283, 283),
    (48, 97, 97),
    (49, 197, 197),
    (50, 101, 101),
    (51, 103, 103),
    (52, 159, 313),
    (53, 107, 107),
    (54, 109, 109),
    (55, 121, 331),
    (56, 113, 113),
    (57, 229, 229),
    (58, 177, 233),
    (59, 709, 709),
    (60, 143, 241),
    (61, 367, 367),
    (62, 373, 373),
    (63, 127, 127),
    (64, 255, 257),
    (65, 131, 131),
    (66, 161, 397),
    (67, 269, 269),
    (68, 137, 137),
    (69, 139, 139),
    (70, 213, 281),
    (71, 569, 569),
    (72, 185, 433),
    (73, 293, 293),
    (74, 149, 149),
    (75, 151, 151),
    (76, 457, 457),
    (77, 463, 463),
    (78, 157, 157),
    (79, 317, 317),
    (80, 187, 641),
    (81, 163, 163),
    (82, 249, 821),
    (83, 167, 167),
    (84, 203, 337),
    (85, 1021, 1021),
    (86, 173, 173),
    (87, 349, 349),
    (88, 267, 353),
    (89, 179, 179),
    (90, 181, 181),
    (91, 547, 547),
    (92, 235, 1289),
    (93, 373, 373),
    (94, 849, 941),
    (95, 191, 191),
    (96, 193, 193),
    (97, 389, 389),
    (98, 197, 197),
    (99, 199, 199),
    (100, 275, 401),)


def golden_rows(d_max: int = 100) -> tuple[tuple[int, int, int, bool], ...]:
    """(d, C(d), p_d, strict) rows for d = 1..d_max, d_max <= 100."""
    if not 1 <= d_max <= len(GOLDEN_TABLE):
        raise ValueError(f"golden data covers 1 <= d_max <= {len(GOLDEN_TABLE)}")
    return tuple((d, c, p, c < p) for d, c, p in GOLDEN_TABLE[:d_max])


def table_mismatch(rows: Sequence["TableRow"], d_max: int) -> Optional[str]:
    """None when rows equal the published rows 1..d_max, else what differs.

    Names the row counts when they differ, otherwise the first differing row
    as d with the computed and published (C, p, strict).
    """
    published = golden_rows(d_max)
    if len(rows) != len(published):
        return f"computed {len(rows)} rows, published {len(published)}"
    for row, want in zip(rows, published):
        got = (row.d, row.c_of_d, row.p_d, row.strict)
        if got != want:
            return (
                f"row d = {want[0]}: computed (C, p, strict) = {got[1:]}, "
                f"published {want[1:]}"
            )
    return None
