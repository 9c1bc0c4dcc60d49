"""Fixture: eager record materialization in the hot-path modules."""


def stab_loop(leaf, codec, blob):
    decoded = leaf.page.records
    section = leaf.section_records(2)
    rows = codec.unpack_many(blob, 4)
    ok = leaf.section_records(1)  # repro: allow[HOT001] fixture exemption
    return decoded, section, rows, ok


def records(page):
    return page.records


def take(batch):
    return batch.records
