from bhr import seeds


def seed_row(table_id: str, variant: str) -> seeds.SeedEntry:
    """The one row of seed table table_id named variant."""
    [entry] = [e for e in seeds.table(table_id) if e.variant == variant]
    return entry
