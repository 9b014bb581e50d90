use crate::table::{self, Format};
use crate::{IsaError, Opcode, Reg, SetFlagCond, TimingClass};
use serde::{Deserialize, Serialize};
use std::fmt;

/// Operand bundle of a decoded instruction.
///
/// Not every field is meaningful for every [`Opcode`]; the accessors on
/// [`Insn`] (such as [`Insn::rd`]) return `None` when the operand does not
/// exist for the instruction format.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Operands {
    /// Destination register, when present.
    pub rd: Option<Reg>,
    /// First source register, when present.
    pub ra: Option<Reg>,
    /// Second source register, when present.
    pub rb: Option<Reg>,
    /// Immediate operand. For branches/jumps this is the *word* offset
    /// relative to the instruction itself (as in the ORBIS32 encoding).
    pub imm: Option<i32>,
}

/// A single decoded ORBIS32 instruction.
///
/// An `Insn` pairs an [`Opcode`] with its operands and provides the
/// bidirectional mapping to the 32-bit machine encoding.
///
/// # Example
///
/// ```
/// use idca_isa::{Insn, Opcode, Reg};
///
/// # fn main() -> Result<(), idca_isa::IsaError> {
/// let insn = Insn::addi(Reg::r(3), Reg::r(0), 42)?;
/// let word = insn.encode();
/// assert_eq!(Insn::decode(word)?, insn);
/// assert_eq!(insn.opcode(), Opcode::Addi);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Insn {
    opcode: Opcode,
    operands: Operands,
}

impl Insn {
    /// Creates an instruction from an opcode and a raw operand bundle.
    ///
    /// This performs no operand validation and is intended for generic code
    /// (e.g. a decoder or a random program generator) that has already
    /// range-checked its inputs; the typed constructors below are the
    /// preferred way to build instructions by hand.
    #[must_use]
    pub fn from_parts(opcode: Opcode, operands: Operands) -> Self {
        Insn { opcode, operands }
    }

    /// The opcode of this instruction.
    #[must_use]
    pub fn opcode(&self) -> Opcode {
        self.opcode
    }

    /// The timing class (delay-LUT key) of this instruction.
    #[inline]
    #[must_use]
    pub fn timing_class(&self) -> TimingClass {
        self.opcode.timing_class()
    }

    /// The raw operand bundle.
    #[must_use]
    pub fn operands(&self) -> Operands {
        self.operands
    }

    /// Destination register, if the format has one.
    #[must_use]
    pub fn rd(&self) -> Option<Reg> {
        self.operands.rd
    }

    /// First source register, if the format has one.
    #[must_use]
    pub fn ra(&self) -> Option<Reg> {
        self.operands.ra
    }

    /// Second source register, if the format has one.
    #[must_use]
    pub fn rb(&self) -> Option<Reg> {
        self.operands.rb
    }

    /// Immediate operand, if the format has one.
    #[must_use]
    pub fn imm(&self) -> Option<i32> {
        self.operands.imm
    }

    /// The two source-register ports `(rA, rB)` exactly as the forwarding
    /// network sees them: the raw operand fields, independent of whether the
    /// opcode architecturally reads them. Stable accessor for predecode
    /// lowering (one call instead of two `Option` probes per cycle).
    #[must_use]
    pub fn source_regs(&self) -> (Option<Reg>, Option<Reg>) {
        (self.operands.ra, self.operands.rb)
    }

    /// The *effective* architectural destination register: the `rD` field
    /// when [`Opcode::writes_rd`] holds, `None` otherwise (stores, compares,
    /// plain branches and `l.nop` never write back even if a malformed
    /// operand bundle carries an `rd`). Link-register writes of `l.jal` /
    /// `l.jalr` are a property of the jump itself, not of this field.
    #[must_use]
    pub fn dest_reg(&self) -> Option<Reg> {
        if self.opcode.writes_rd() {
            self.operands.rd
        } else {
            None
        }
    }

    /// Builds `opcode` from operand fields, keeping the ones its format
    /// has. The immediate is not range-checked.
    fn with_fields(opcode: Opcode, rd: Reg, ra: Reg, rb: Reg, imm: i32) -> Self {
        let format = opcode.facts().format;
        Insn {
            opcode,
            operands: Operands {
                rd: format.has_rd().then_some(rd),
                ra: format.has_ra().then_some(ra),
                rb: format.has_rb().then_some(rb),
                imm: format.imm().map(|_| imm),
            },
        }
    }

    /// [`Insn::with_fields`] after checking `imm` against the format's
    /// immediate field.
    pub(crate) fn checked(
        opcode: Opcode,
        rd: Reg,
        ra: Reg,
        rb: Reg,
        imm: i64,
    ) -> Result<Self, IsaError> {
        let imm = match opcode.facts().format.imm() {
            Some(field) => field.check(opcode, imm)?,
            None => 0,
        };
        Ok(Self::with_fields(opcode, rd, ra, rb, imm))
    }

    // ---------------------------------------------------------------------
    // Typed constructors (register-register ALU)
    // ---------------------------------------------------------------------

    fn rrr(opcode: Opcode, rd: Reg, ra: Reg, rb: Reg) -> Self {
        Self::with_fields(opcode, rd, ra, rb, 0)
    }

    fn rri(opcode: Opcode, rd: Reg, ra: Reg, imm: i64) -> Result<Self, IsaError> {
        Self::checked(opcode, rd, ra, Reg::R0, imm)
    }

    /// `l.add rD, rA, rB`
    #[must_use]
    pub fn add(rd: Reg, ra: Reg, rb: Reg) -> Self {
        Self::rrr(Opcode::Add, rd, ra, rb)
    }

    /// `l.addc rD, rA, rB`
    #[must_use]
    pub fn addc(rd: Reg, ra: Reg, rb: Reg) -> Self {
        Self::rrr(Opcode::Addc, rd, ra, rb)
    }

    /// `l.sub rD, rA, rB`
    #[must_use]
    pub fn sub(rd: Reg, ra: Reg, rb: Reg) -> Self {
        Self::rrr(Opcode::Sub, rd, ra, rb)
    }

    /// `l.and rD, rA, rB`
    #[must_use]
    pub fn and(rd: Reg, ra: Reg, rb: Reg) -> Self {
        Self::rrr(Opcode::And, rd, ra, rb)
    }

    /// `l.or rD, rA, rB`
    #[must_use]
    pub fn or(rd: Reg, ra: Reg, rb: Reg) -> Self {
        Self::rrr(Opcode::Or, rd, ra, rb)
    }

    /// `l.xor rD, rA, rB`
    #[must_use]
    pub fn xor(rd: Reg, ra: Reg, rb: Reg) -> Self {
        Self::rrr(Opcode::Xor, rd, ra, rb)
    }

    /// `l.mul rD, rA, rB`
    #[must_use]
    pub fn mul(rd: Reg, ra: Reg, rb: Reg) -> Self {
        Self::rrr(Opcode::Mul, rd, ra, rb)
    }

    /// `l.mulu rD, rA, rB`
    #[must_use]
    pub fn mulu(rd: Reg, ra: Reg, rb: Reg) -> Self {
        Self::rrr(Opcode::Mulu, rd, ra, rb)
    }

    /// `l.sll rD, rA, rB`
    #[must_use]
    pub fn sll(rd: Reg, ra: Reg, rb: Reg) -> Self {
        Self::rrr(Opcode::Sll, rd, ra, rb)
    }

    /// `l.srl rD, rA, rB`
    #[must_use]
    pub fn srl(rd: Reg, ra: Reg, rb: Reg) -> Self {
        Self::rrr(Opcode::Srl, rd, ra, rb)
    }

    /// `l.sra rD, rA, rB`
    #[must_use]
    pub fn sra(rd: Reg, ra: Reg, rb: Reg) -> Self {
        Self::rrr(Opcode::Sra, rd, ra, rb)
    }

    /// `l.ror rD, rA, rB`
    #[must_use]
    pub fn ror(rd: Reg, ra: Reg, rb: Reg) -> Self {
        Self::rrr(Opcode::Ror, rd, ra, rb)
    }

    /// `l.cmov rD, rA, rB` — `rD = flag ? rA : rB`.
    #[must_use]
    pub fn cmov(rd: Reg, ra: Reg, rb: Reg) -> Self {
        Self::rrr(Opcode::Cmov, rd, ra, rb)
    }

    /// `l.extbs rD, rA`
    #[must_use]
    pub fn extbs(rd: Reg, ra: Reg) -> Self {
        Self::rrr(Opcode::Extbs, rd, ra, Reg::R0)
    }

    /// `l.exths rD, rA`
    #[must_use]
    pub fn exths(rd: Reg, ra: Reg) -> Self {
        Self::rrr(Opcode::Exths, rd, ra, Reg::R0)
    }

    // ---------------------------------------------------------------------
    // Typed constructors (immediate ALU)
    // ---------------------------------------------------------------------

    /// `l.addi rD, rA, I` with a signed 16-bit immediate.
    ///
    /// # Errors
    ///
    /// Returns [`IsaError::ImmediateOutOfRange`] if `imm` does not fit.
    pub fn addi(rd: Reg, ra: Reg, imm: i32) -> Result<Self, IsaError> {
        Self::rri(Opcode::Addi, rd, ra, imm.into())
    }

    /// `l.addic rD, rA, I` (add immediate with carry-in).
    ///
    /// # Errors
    ///
    /// Returns [`IsaError::ImmediateOutOfRange`] if `imm` does not fit.
    pub fn addic(rd: Reg, ra: Reg, imm: i32) -> Result<Self, IsaError> {
        Self::rri(Opcode::Addic, rd, ra, imm.into())
    }

    /// `l.andi rD, rA, K` with an unsigned 16-bit immediate.
    ///
    /// # Errors
    ///
    /// Returns [`IsaError::ImmediateOutOfRange`] if `imm` does not fit.
    pub fn andi(rd: Reg, ra: Reg, imm: u32) -> Result<Self, IsaError> {
        Self::rri(Opcode::Andi, rd, ra, imm.into())
    }

    /// `l.ori rD, rA, K` with an unsigned 16-bit immediate.
    ///
    /// # Errors
    ///
    /// Returns [`IsaError::ImmediateOutOfRange`] if `imm` does not fit.
    pub fn ori(rd: Reg, ra: Reg, imm: u32) -> Result<Self, IsaError> {
        Self::rri(Opcode::Ori, rd, ra, imm.into())
    }

    /// `l.xori rD, rA, I` with a signed 16-bit immediate.
    ///
    /// # Errors
    ///
    /// Returns [`IsaError::ImmediateOutOfRange`] if `imm` does not fit.
    pub fn xori(rd: Reg, ra: Reg, imm: i32) -> Result<Self, IsaError> {
        Self::rri(Opcode::Xori, rd, ra, imm.into())
    }

    /// `l.muli rD, rA, I` with a signed 16-bit immediate.
    ///
    /// # Errors
    ///
    /// Returns [`IsaError::ImmediateOutOfRange`] if `imm` does not fit.
    pub fn muli(rd: Reg, ra: Reg, imm: i32) -> Result<Self, IsaError> {
        Self::rri(Opcode::Muli, rd, ra, imm.into())
    }

    /// `l.slli rD, rA, L` with a shift amount in `0..32`.
    ///
    /// # Errors
    ///
    /// Returns [`IsaError::ImmediateOutOfRange`] if `amount >= 32`.
    pub fn slli(rd: Reg, ra: Reg, amount: u32) -> Result<Self, IsaError> {
        Self::rri(Opcode::Slli, rd, ra, amount.into())
    }

    /// `l.srli rD, rA, L` with a shift amount in `0..32`.
    ///
    /// # Errors
    ///
    /// Returns [`IsaError::ImmediateOutOfRange`] if `amount >= 32`.
    pub fn srli(rd: Reg, ra: Reg, amount: u32) -> Result<Self, IsaError> {
        Self::rri(Opcode::Srli, rd, ra, amount.into())
    }

    /// `l.srai rD, rA, L` with a shift amount in `0..32`.
    ///
    /// # Errors
    ///
    /// Returns [`IsaError::ImmediateOutOfRange`] if `amount >= 32`.
    pub fn srai(rd: Reg, ra: Reg, amount: u32) -> Result<Self, IsaError> {
        Self::rri(Opcode::Srai, rd, ra, amount.into())
    }

    /// `l.rori rD, rA, L` with a rotate amount in `0..32`.
    ///
    /// # Errors
    ///
    /// Returns [`IsaError::ImmediateOutOfRange`] if `amount >= 32`.
    pub fn rori(rd: Reg, ra: Reg, amount: u32) -> Result<Self, IsaError> {
        Self::rri(Opcode::Rori, rd, ra, amount.into())
    }

    /// `l.movhi rD, K` with an unsigned 16-bit immediate.
    ///
    /// # Errors
    ///
    /// Returns [`IsaError::ImmediateOutOfRange`] if `imm` does not fit.
    pub fn movhi(rd: Reg, imm: u32) -> Result<Self, IsaError> {
        Self::rri(Opcode::Movhi, rd, Reg::R0, imm.into())
    }

    // ---------------------------------------------------------------------
    // Set-flag comparisons
    // ---------------------------------------------------------------------

    /// `l.sf<cond> rA, rB`
    #[must_use]
    pub fn sf(cond: SetFlagCond, ra: Reg, rb: Reg) -> Self {
        Self::rrr(Opcode::Sf(cond), Reg::R0, ra, rb)
    }

    /// `l.sf<cond>i rA, I` with a signed 16-bit immediate.
    ///
    /// # Errors
    ///
    /// Returns [`IsaError::ImmediateOutOfRange`] if `imm` does not fit.
    pub fn sfi(cond: SetFlagCond, ra: Reg, imm: i32) -> Result<Self, IsaError> {
        Self::rri(Opcode::Sfi(cond), Reg::R0, ra, imm.into())
    }

    // ---------------------------------------------------------------------
    // Loads / stores
    // ---------------------------------------------------------------------

    fn load(opcode: Opcode, rd: Reg, offset: i32, ra: Reg) -> Result<Self, IsaError> {
        Self::rri(opcode, rd, ra, offset.into())
    }

    fn store(opcode: Opcode, offset: i32, ra: Reg, rb: Reg) -> Result<Self, IsaError> {
        Self::checked(opcode, Reg::R0, ra, rb, offset.into())
    }

    /// `l.lwz rD, I(rA)` — load word.
    ///
    /// # Errors
    ///
    /// Returns [`IsaError::ImmediateOutOfRange`] if `offset` does not fit.
    pub fn lwz(rd: Reg, offset: i32, ra: Reg) -> Result<Self, IsaError> {
        Self::load(Opcode::Lwz, rd, offset, ra)
    }

    /// `l.lws rD, I(rA)` — load word, sign-extended (identical to `l.lwz` on
    /// a 32-bit implementation but encoded distinctly).
    ///
    /// # Errors
    ///
    /// Returns [`IsaError::ImmediateOutOfRange`] if `offset` does not fit.
    pub fn lws(rd: Reg, offset: i32, ra: Reg) -> Result<Self, IsaError> {
        Self::load(Opcode::Lws, rd, offset, ra)
    }

    /// `l.lhz rD, I(rA)` — load half-word zero-extended.
    ///
    /// # Errors
    ///
    /// Returns [`IsaError::ImmediateOutOfRange`] if `offset` does not fit.
    pub fn lhz(rd: Reg, offset: i32, ra: Reg) -> Result<Self, IsaError> {
        Self::load(Opcode::Lhz, rd, offset, ra)
    }

    /// `l.lhs rD, I(rA)` — load half-word sign-extended.
    ///
    /// # Errors
    ///
    /// Returns [`IsaError::ImmediateOutOfRange`] if `offset` does not fit.
    pub fn lhs(rd: Reg, offset: i32, ra: Reg) -> Result<Self, IsaError> {
        Self::load(Opcode::Lhs, rd, offset, ra)
    }

    /// `l.lbz rD, I(rA)` — load byte zero-extended.
    ///
    /// # Errors
    ///
    /// Returns [`IsaError::ImmediateOutOfRange`] if `offset` does not fit.
    pub fn lbz(rd: Reg, offset: i32, ra: Reg) -> Result<Self, IsaError> {
        Self::load(Opcode::Lbz, rd, offset, ra)
    }

    /// `l.lbs rD, I(rA)` — load byte sign-extended.
    ///
    /// # Errors
    ///
    /// Returns [`IsaError::ImmediateOutOfRange`] if `offset` does not fit.
    pub fn lbs(rd: Reg, offset: i32, ra: Reg) -> Result<Self, IsaError> {
        Self::load(Opcode::Lbs, rd, offset, ra)
    }

    /// `l.sw I(rA), rB` — store word.
    ///
    /// # Errors
    ///
    /// Returns [`IsaError::ImmediateOutOfRange`] if `offset` does not fit.
    pub fn sw(offset: i32, ra: Reg, rb: Reg) -> Result<Self, IsaError> {
        Self::store(Opcode::Sw, offset, ra, rb)
    }

    /// `l.sh I(rA), rB` — store half-word.
    ///
    /// # Errors
    ///
    /// Returns [`IsaError::ImmediateOutOfRange`] if `offset` does not fit.
    pub fn sh(offset: i32, ra: Reg, rb: Reg) -> Result<Self, IsaError> {
        Self::store(Opcode::Sh, offset, ra, rb)
    }

    /// `l.sb I(rA), rB` — store byte.
    ///
    /// # Errors
    ///
    /// Returns [`IsaError::ImmediateOutOfRange`] if `offset` does not fit.
    pub fn sb(offset: i32, ra: Reg, rb: Reg) -> Result<Self, IsaError> {
        Self::store(Opcode::Sb, offset, ra, rb)
    }

    // ---------------------------------------------------------------------
    // Control flow
    // ---------------------------------------------------------------------

    fn pc_rel(opcode: Opcode, word_offset: i32) -> Result<Self, IsaError> {
        Self::checked(opcode, Reg::R0, Reg::R0, Reg::R0, word_offset.into())
    }

    /// `l.j N` — PC-relative jump by `word_offset` instruction words.
    ///
    /// # Errors
    ///
    /// Returns [`IsaError::ImmediateOutOfRange`] if the offset exceeds 26 bits.
    pub fn j(word_offset: i32) -> Result<Self, IsaError> {
        Self::pc_rel(Opcode::J, word_offset)
    }

    /// `l.jal N` — jump and link.
    ///
    /// # Errors
    ///
    /// Returns [`IsaError::ImmediateOutOfRange`] if the offset exceeds 26 bits.
    pub fn jal(word_offset: i32) -> Result<Self, IsaError> {
        Self::pc_rel(Opcode::Jal, word_offset)
    }

    /// `l.bf N` — branch (if flag) by `word_offset` instruction words.
    ///
    /// # Errors
    ///
    /// Returns [`IsaError::ImmediateOutOfRange`] if the offset exceeds 26 bits.
    pub fn bf(word_offset: i32) -> Result<Self, IsaError> {
        Self::pc_rel(Opcode::Bf, word_offset)
    }

    /// `l.bnf N` — branch (if flag clear) by `word_offset` instruction words.
    ///
    /// # Errors
    ///
    /// Returns [`IsaError::ImmediateOutOfRange`] if the offset exceeds 26 bits.
    pub fn bnf(word_offset: i32) -> Result<Self, IsaError> {
        Self::pc_rel(Opcode::Bnf, word_offset)
    }

    /// `l.jr rB` — jump to the address in `rB`.
    #[must_use]
    pub fn jr(rb: Reg) -> Self {
        Self::rrr(Opcode::Jr, Reg::R0, Reg::R0, rb)
    }

    /// `l.jalr rB` — jump to the address in `rB` and link.
    #[must_use]
    pub fn jalr(rb: Reg) -> Self {
        Self::rrr(Opcode::Jalr, Reg::R0, Reg::R0, rb)
    }

    /// `l.rfe` — return from exception to the saved exception PC.
    #[must_use]
    pub fn rfe() -> Self {
        Self::rrr(Opcode::Rfe, Reg::R0, Reg::R0, Reg::R0)
    }

    /// `l.nop K`.
    #[must_use]
    pub fn nop(k: u16) -> Self {
        Self::with_fields(Opcode::Nop, Reg::R0, Reg::R0, Reg::R0, k.into())
    }

    // ---------------------------------------------------------------------
    // Encoding / decoding
    // ---------------------------------------------------------------------

    /// Encodes the instruction into its 32-bit ORBIS32 machine word.
    #[must_use]
    pub fn encode(&self) -> u32 {
        let row = self.opcode.row();
        (row.major << 26) | row.fixed | row.facts.format.pack(&self.operands)
    }

    /// Decodes a 32-bit machine word.
    ///
    /// # Errors
    ///
    /// Returns [`IsaError::UnknownEncoding`] for words outside the modelled
    /// subset and [`IsaError::ImmediateOutOfRange`] for shift amounts of 32
    /// or more.
    pub fn decode(word: u32) -> Result<Self, IsaError> {
        let row = table::row_of_word(word)?;
        if row.facts.format == Format::Rfe && word & 0x03FF_FFFF != 0 {
            return Err(IsaError::UnknownEncoding { word });
        }
        let reg = |lsb: u32| Reg::r((word >> lsb) & 0x1F);
        let imm = row.facts.format.unpack_imm(word);
        Self::checked(row.opcode, reg(21), reg(16), reg(11), imm)
    }
}

impl fmt::Display for Insn {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&crate::disasm::format_insn(self))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::table::tests::every_row_instance;

    #[test]
    fn encode_decode_roundtrip_for_all_formats() {
        for insn in every_row_instance() {
            let word = insn.encode();
            let decoded = Insn::decode(word).unwrap_or_else(|e| {
                panic!("failed to decode {insn} ({word:#010x}): {e}");
            });
            assert_eq!(decoded, insn, "roundtrip mismatch for {insn}");
        }
    }

    #[test]
    fn distinct_instructions_have_distinct_encodings() {
        let insns = every_row_instance();
        let words: Vec<u32> = insns.iter().map(Insn::encode).collect();
        for (i, wi) in words.iter().enumerate() {
            for (j, wj) in words.iter().enumerate() {
                if i != j {
                    assert_ne!(wi, wj, "{} and {} encode identically", insns[i], insns[j]);
                }
            }
        }
    }

    #[test]
    fn known_encodings_match_orbis32() {
        // l.nop 0 encodes as 0x15000000 in the OpenRISC manual.
        assert_eq!(Insn::nop(0).encode(), 0x1500_0000);
        // l.addi rD,rA,I has major opcode 0x27.
        assert_eq!(
            Insn::addi(Reg::r(3), Reg::r(4), 1).unwrap().encode() >> 26,
            0x27
        );
        // l.j has major opcode 0x00, l.bf 0x04.
        assert_eq!(Insn::j(4).unwrap().encode() >> 26, 0x00);
        assert_eq!(Insn::bf(4).unwrap().encode() >> 26, 0x04);
        // l.sw has major opcode 0x35.
        assert_eq!(
            Insn::sw(0, Reg::r(1), Reg::r(2)).unwrap().encode() >> 26,
            0x35
        );
    }

    #[test]
    fn immediate_range_checks() {
        assert!(Insn::addi(Reg::r(1), Reg::r(2), 32767).is_ok());
        assert!(Insn::addi(Reg::r(1), Reg::r(2), 32768).is_err());
        assert!(Insn::addi(Reg::r(1), Reg::r(2), -32768).is_ok());
        assert!(Insn::addi(Reg::r(1), Reg::r(2), -32769).is_err());
        assert!(Insn::andi(Reg::r(1), Reg::r(2), 65535).is_ok());
        assert!(Insn::andi(Reg::r(1), Reg::r(2), 65536).is_err());
        assert!(Insn::slli(Reg::r(1), Reg::r(2), 32).is_err());
        assert!(Insn::j(1 << 25).is_err());
        assert!(Insn::j((1 << 25) - 1).is_ok());
        // Range errors name the instruction, not its format.
        let mnemonic = |result: Result<Insn, IsaError>| match result {
            Err(IsaError::ImmediateOutOfRange { mnemonic, .. }) => mnemonic,
            other => panic!("expected a range error, got {other:?}"),
        };
        assert_eq!(mnemonic(Insn::lhs(Reg::r(3), 40000, Reg::r(1))), "l.lhs");
        assert_eq!(mnemonic(Insn::sb(-40000, Reg::r(1), Reg::r(3))), "l.sb");
        let sfi = Insn::sfi(SetFlagCond::Gts, Reg::r(3), 1 << 15);
        assert_eq!(mnemonic(sfi), "l.sfgtsi");
    }

    #[test]
    fn store_immediate_split_field_roundtrips() {
        // Store offsets are split across two fields in the encoding; check
        // values that exercise both halves and the sign bit.
        for offset in [-32768, -2049, -1, 0, 1, 2047, 2048, 32767] {
            let insn = Insn::sw(offset, Reg::r(1), Reg::r(2)).unwrap();
            assert_eq!(
                Insn::decode(insn.encode()).unwrap(),
                insn,
                "offset {offset}"
            );
        }
    }

    #[test]
    fn unknown_words_are_rejected() {
        assert!(Insn::decode(0xFFFF_FFFF).is_err());
        // Major opcode 0x3F is not part of the subset.
        assert!(Insn::decode(0x3F << 26).is_err());
        // `l.rfe` has no operands, so any operand bit makes the word invalid.
        assert!(Insn::decode(Insn::rfe().encode() | 1).is_err());
    }

    #[test]
    fn display_renders_assembly_like_text() {
        let insn = Insn::addi(Reg::r(3), Reg::r(0), 10).unwrap();
        assert_eq!(insn.to_string(), "l.addi r3, r0, 10");
        let insn = Insn::lwz(Reg::r(5), -8, Reg::r(1)).unwrap();
        assert_eq!(insn.to_string(), "l.lwz r5, -8(r1)");
    }
}
