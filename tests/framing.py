"""Cases shared by the properties over framed files (data_io.write_framed):
model.ckpt and test_attention.bin."""

from hypothesis import strategies as st


def cuts(blob: bytes, last: int):
    """A length to cut framed file `blob` to: any short of the whole, or the one
    that drops the payload's last `last` bytes whole, which leaves a well-formed
    header."""
    return st.integers(0, len(blob) - 1) | st.just(len(blob) - last)
