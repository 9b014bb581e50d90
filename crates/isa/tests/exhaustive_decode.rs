//! Exhaustive decoder check: every one of the 2^32 instruction words.
//!
//! Ignored by default because it takes about a minute in release mode:
//!
//! ```text
//! cargo test --release -p idca-isa -- --ignored
//! ```

use idca_isa::Insn;

/// FxHash-style fold of each word's decode result, in word order: an `Ok`
/// instruction contributes its (canonical) encoding, an `Err` a marker no
/// encoding can equal.
#[test]
#[ignore = "decodes all 2^32 words; run with `cargo test --release -- --ignored`"]
fn every_word_decodes_as_pinned() {
    const ERR_MARKER: u64 = 1 << 32;
    let mut hash: u64 = 0;
    let mut decodable: u64 = 0;
    for word in 0..=u32::MAX {
        let value = match Insn::decode(word) {
            Ok(insn) => {
                decodable += 1;
                u64::from(insn.encode())
            }
            Err(_) => ERR_MARKER,
        };
        hash = (hash.rotate_left(5) ^ value).wrapping_mul(0x517c_c1b7_2722_0a95);
    }
    println!("decodable={decodable} hash={hash:#018x}");
    assert_eq!(decodable, 1_630_011_393);
    assert_eq!(hash, 0xbe98_19d6_e8ab_868e);
}
