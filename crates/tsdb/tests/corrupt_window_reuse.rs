//! Regression test: a value record that asks to reuse the XOR window
//! before any window was set is corrupt. Both Gorilla decoders must end
//! the block there, identically, in debug and release builds alike.

use fbd_tsdb::{BlockBuilder, DataPoint, SealedBlock};

#[test]
fn reuse_before_window_ends_the_block_in_both_decoders() {
    let mut b = BlockBuilder::new();
    b.push(DataPoint {
        timestamp: 0,
        value: 1.0,
    });
    b.push(DataPoint {
        timestamp: 60,
        value: 2.0,
    });
    let block = b.seal();
    let mut bytes = block.payload().to_vec();
    // bit 138 is the second control bit of the first value record:
    // '11' (fresh window) -> '10' (reuse) with no window ever set.
    bytes[17] ^= 1 << 5;
    let corrupt = SealedBlock::from_raw_parts(bytes, block.count());
    let legacy: Vec<_> = corrupt
        .reference_iter()
        .map(|p| (p.timestamp, p.value.to_bits()))
        .collect();
    let word: Vec<_> = corrupt
        .iter()
        .map(|p| (p.timestamp, p.value.to_bits()))
        .collect();
    assert_eq!(word, legacy);
    // The uncorrupted first point survives; the corrupt record ends it.
    assert_eq!(word, vec![(0, 1.0f64.to_bits())]);
}
