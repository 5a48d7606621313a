from costs import GENERATORS, form_bytes, kept_bytes

# Bytes per reached state of the predecessor form, 20% or more above what
# CPython 3.11 measures (120.1 and 297.3 in the form, 155.9 and 439.3 at the
# peak, at 4 and 12 letters).  A three-round key holds about 1 + d + d² + d³
# masks for d letters read per state, so denser transitions show here
# first.
BOUNDS = {4: (145, 225), 12: (440, 800)}


def test_form_bytes_per_reached_state_stay_bounded():
    for generators in GENERATORS:
        letters, held, peak = form_bytes(generators)
        assert held <= BOUNDS[letters][0] and peak <= BOUNDS[letters][1], (letters, held, peak)
        assert 0 < held < peak


def test_kept_entry_is_the_form_alone():
    # A root's kept entry is its ``_classes`` side: the form, and no reach
    # list or other per-state list beside it.
    for generators in GENERATORS:
        _, held, _ = form_bytes(generators)
        assert kept_bytes(generators) <= held + 1

