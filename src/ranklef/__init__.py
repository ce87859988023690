"""Lefschetz numbers of Hecke operators on rank-one locally symmetric spaces."""
