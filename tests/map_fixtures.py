"""Shared embedded-map fixtures: hand-checked clockwise rotation systems."""

import random

from strongodd.planemaps import embed_cycle, embed_star, from_neighbor_rotations
from strongodd.randgen import random_triangulation

OCTAHEDRON = [[2, 3, 4, 5], [2, 5, 4, 3], [0, 5, 1, 3], [1, 4, 0, 2],
              [3, 1, 5, 0], [4, 1, 2, 0]]
WHEEL4 = [[1, 4, 3, 2], [0, 2, 4], [1, 0, 3], [2, 0, 4], [3, 0, 1]]
WHEEL5 = [[1, 5, 4, 3, 2], [0, 2, 5], [1, 0, 3], [2, 0, 4], [3, 0, 5], [4, 0, 1]]
THETA = [[2, 3, 1], [2, 0, 3], [0, 1], [1, 0]]
CUBE = [[1, 4, 3], [0, 2, 5], [1, 3, 6], [2, 0, 7], [7, 0, 5], [4, 1, 6],
        [5, 2, 7], [3, 4, 6]]
PRISM = [[1, 3, 2], [0, 2, 4], [1, 0, 5], [5, 0, 4], [3, 1, 5], [2, 3, 4]]
# pentagon (0,3,4,5,6) sharing vertex 0 with a triangle (0,1,2) drawn inside
PENTA_TRI = [[2, 3, 6, 1], [0, 2], [1, 0], [0, 4], [3, 5], [4, 6], [5, 0]]


def annihilation_fixtures():
    """(map, vertex) pairs covering degree-2 digon production, hubs of
    wheels, and assorted triangulations."""
    rng = random.Random(13)
    return [
        (embed_star(3), 0),
        (embed_cycle(4), 1),
        (embed_cycle(6), 3),
        (from_neighbor_rotations(THETA), 2),
        (from_neighbor_rotations(WHEEL4), 0),
        (from_neighbor_rotations(WHEEL5), 0),
        (from_neighbor_rotations(OCTAHEDRON), 2),
        (from_neighbor_rotations(CUBE), 5),
        (from_neighbor_rotations(PRISM), 1),
        (from_neighbor_rotations(PENTA_TRI), 0),
        (random_triangulation(8, rng), 6),
        (random_triangulation(11, rng), 4),
    ]
