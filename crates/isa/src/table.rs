//! The ORBIS32 instruction table: the single source of instruction facts.
//!
//! [`TABLE`] holds one [`Row`] per opcode and set-flag condition: the
//! mnemonic, the primary opcode and fixed sub-fields, the operand
//! [`Format`], the [`TimingClass`] and the memory width. Everything else is
//! derived from it: the [`Opcode`] accessors, [`Insn::encode`] and
//! [`Insn::decode`] (one pack/unpack per format), the assembler's mnemonic
//! lookup and operand parsing, the disassembler (both driven by
//! [`Format::syntax`]) and the typed constructors' immediate range checks.
//!
//! [`Insn::encode`]: crate::Insn::encode
//! [`Insn::decode`]: crate::Insn::decode

use crate::{IsaError, Opcode, Operands, Reg, SetFlagCond, TimingClass};

/// Which operands an instruction has and where they live in its 32-bit
/// word ([`Format::layout`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Format {
    /// `rD, rA, rB`.
    Rrr,
    /// `rD, rA`.
    Rr,
    /// `rD, rA, I`: signed 16-bit immediate.
    RriS16,
    /// `rD, rA, K`: unsigned 16-bit immediate.
    RriU16,
    /// `rD, rA, L`: 5-bit shift amount in the 6-bit `L` field.
    RriShamt5,
    /// `rD, K`: `l.movhi`.
    Movhi,
    /// `rA, rB`: register set-flag.
    Sf,
    /// `rA, I`: immediate set-flag.
    Sfi,
    /// `rD, I(rA)`: load.
    Load,
    /// `I(rA), rB`: store, immediate split over bits 25..21 and 10..0.
    Store,
    /// `N`: signed 26-bit word offset.
    PcRel26,
    /// `rB`: register jump.
    RegJump,
    /// No operands; every operand bit must be zero.
    Rfe,
    /// `K`: `l.nop`'s unsigned 16-bit tag.
    NopU16,
}

/// An immediate field's range: width in bits and signedness.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct ImmField {
    pub(crate) bits: u32,
    pub(crate) signed: bool,
}

impl ImmField {
    /// The smallest and largest value that fits.
    pub(crate) fn range(self) -> (i64, i64) {
        if self.signed {
            (-(1i64 << (self.bits - 1)), (1i64 << (self.bits - 1)) - 1)
        } else {
            (0, (1i64 << self.bits) - 1)
        }
    }

    /// Returns `value` if it fits, [`IsaError::ImmediateOutOfRange`] naming
    /// `opcode` otherwise.
    pub(crate) fn check(self, opcode: Opcode, value: i64) -> Result<i32, IsaError> {
        let (min, max) = self.range();
        if (min..=max).contains(&value) {
            Ok(value as i32)
        } else {
            Err(IsaError::ImmediateOutOfRange {
                mnemonic: opcode.mnemonic(),
                value,
                bits: self.bits,
                signed: self.signed,
            })
        }
    }
}

/// One operand of an instruction's assembly syntax.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Operand {
    /// Destination register `rD`.
    Rd,
    /// Source register `rA`.
    Ra,
    /// Source register `rB`.
    Rb,
    /// A decimal immediate.
    Imm,
    /// An immediate rendered in hex (`l.movhi`).
    HexImm,
    /// `I(rA)`: offset plus base register.
    Mem,
    /// A PC-relative word offset, or a label in assembly source.
    Target,
}

impl Format {
    /// The operands of the assembly syntax, in source order.
    pub(crate) const fn syntax(self) -> &'static [Operand] {
        use Operand::*;
        match self {
            Format::Rrr => &[Rd, Ra, Rb],
            Format::Rr => &[Rd, Ra],
            Format::RriS16 | Format::RriU16 | Format::RriShamt5 => &[Rd, Ra, Imm],
            Format::Movhi => &[Rd, HexImm],
            Format::Sf => &[Ra, Rb],
            Format::Sfi => &[Ra, Imm],
            Format::Load => &[Rd, Mem],
            Format::Store => &[Mem, Rb],
            Format::PcRel26 => &[Target],
            Format::RegJump => &[Rb],
            Format::Rfe => &[],
            Format::NopU16 => &[Imm],
        }
    }

    /// The word bits each operand field occupies.
    #[inline]
    const fn layout(self) -> Layout {
        let (regs, imm, imm_hi) = match self {
            Format::Rrr => (RD | RA | RB, 0, 0),
            Format::Rr => (RD | RA, 0, 0),
            Format::RriS16 | Format::RriU16 | Format::Load => (RD | RA, 0xFFFF, 0),
            Format::RriShamt5 => (RD | RA, 0x3F, 0),
            Format::Movhi => (RD, 0xFFFF, 0),
            Format::Sf => (RA | RB, 0, 0),
            Format::Sfi => (RA, 0xFFFF, 0),
            Format::Store => (RA | RB, 0x7FF, 0x1F << 21),
            Format::PcRel26 => (0, 0x03FF_FFFF, 0),
            Format::RegJump => (RB, 0, 0),
            Format::Rfe => (0, 0, 0),
            Format::NopU16 => (0, 0xFFFF, 0),
        };
        Layout { regs, imm, imm_hi }
    }

    /// `true` if the format has an `rD` field.
    #[inline]
    pub(crate) const fn has_rd(self) -> bool {
        self.layout().regs & RD != 0
    }

    /// `true` if the format has an `rA` field.
    #[inline]
    pub(crate) const fn has_ra(self) -> bool {
        self.layout().regs & RA != 0
    }

    /// `true` if the format has an `rB` field.
    #[inline]
    pub(crate) const fn has_rb(self) -> bool {
        self.layout().regs & RB != 0
    }

    /// The immediate's range, `None` if the format has no immediate.
    #[inline]
    pub(crate) const fn imm(self) -> Option<ImmField> {
        let (bits, signed) = match self {
            Format::RriS16 | Format::Sfi | Format::Load | Format::Store => (16, true),
            Format::RriU16 | Format::Movhi | Format::NopU16 => (16, false),
            Format::RriShamt5 => (5, false),
            Format::PcRel26 => (26, true),
            Format::Rrr | Format::Rr | Format::Sf | Format::RegJump | Format::Rfe => return None,
        };
        Some(ImmField { bits, signed })
    }

    /// Packs the operands into their word fields.
    #[inline]
    pub(crate) fn pack(self, operands: &Operands) -> u32 {
        let reg = |reg: Option<Reg>, lsb: u32| reg.map_or(0, |r| u32::from(r.index()) << lsb);
        let regs = reg(operands.rd, 21) | reg(operands.ra, 16) | reg(operands.rb, 11);
        let imm = operands.imm.unwrap_or(0) as u32;
        let layout = self.layout();
        (regs & layout.regs) | (imm & layout.imm) | ((imm << 10) & layout.imm_hi)
    }

    /// Extracts the immediate of `word`, sign-extended for signed fields (0
    /// for formats without one).
    pub(crate) fn unpack_imm(self, word: u32) -> i64 {
        let layout = self.layout();
        let field = (word & layout.imm) | ((word & layout.imm_hi) >> 10);
        match self.imm() {
            Some(ImmField { bits, signed: true }) => {
                i64::from(((field << (32 - bits)) as i32) >> (32 - bits))
            }
            _ => i64::from(field),
        }
    }
}

/// The word bits of a format's operand fields: its registers, its low
/// immediate bits and, for stores, immediate bits 15..11 moved to 25..21.
#[derive(Clone, Copy)]
struct Layout {
    regs: u32,
    imm: u32,
    imm_hi: u32,
}

const RD: u32 = 0x1F << 21;
const RA: u32 = 0x1F << 16;
const RB: u32 = 0x1F << 11;

/// One instruction of the modelled ORBIS32 subset.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Row {
    pub(crate) opcode: Opcode,
    pub(crate) mnemonic: &'static str,
    /// Primary opcode, bits 31..26.
    pub(crate) major: u32,
    /// Sub-field bits the encoder sets below the primary opcode.
    pub(crate) fixed: u32,
    /// The bits of `fixed` the decoder matches (it ignores `l.nop`'s bit 24
    /// and the op3 field of the non-shift ALU operations).
    pub(crate) select: u32,
    pub(crate) facts: Facts,
}

/// The facts of a row the per-cycle accessors read: four bytes, so that
/// [`Opcode::facts`] is a match on constants rather than a row lookup.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Facts {
    pub(crate) format: Format,
    pub(crate) class: TimingClass,
    /// Memory access width in bytes, 0 for non-memory instructions.
    pub(crate) mem_width: u8,
    /// `true` for `l.jal`/`l.jalr`, which write the link register `r9`.
    pub(crate) link: bool,
}

/// Builds [`TABLE`] and the [`Opcode`] to row mappings from the same rows.
macro_rules! orbis32 {
    ($(
        $mnemonic:literal, $op:ident $(($cond:ident))?, $major:literal, $fixed:expr, $select:expr,
        $format:ident, $class:ident, $mem:literal $(, $link:ident)?;
    )*) => {
        /// The ORBIS32 instruction table, one row per opcode and set-flag
        /// condition.
        pub(crate) const TABLE: &[Row] = &[$(Row {
            opcode: Opcode::$op $((SetFlagCond::$cond))?,
            mnemonic: $mnemonic,
            major: $major,
            fixed: $fixed,
            select: $select,
            facts: Facts {
                format: Format::$format,
                class: TimingClass::$class,
                mem_width: $mem,
                link: orbis32!(@link $($link)?),
            },
        }),*];

        impl Opcode {
            /// Index of the first row of this opcode's variant, found at
            /// compile time.
            #[inline]
            const fn variant_index(self) -> usize {
                match self {$(
                    Opcode::$op $((SetFlagCond::$cond))? => const {
                        let mut i = 0;
                        while !matches!(TABLE[i].opcode, Opcode::$op { .. }) {
                            i += 1;
                        }
                        i
                    },
                )*}
            }

            /// This opcode's row facts. Every arm is a constant, so the
            /// match compiles to a lookup rather than a row index.
            #[inline]
            pub(crate) const fn facts(self) -> Facts {
                match self {$(
                    Opcode::$op $((SetFlagCond::$cond))? => const {
                        Opcode::$op $((SetFlagCond::$cond))?.row().facts
                    },
                )*}
            }
        }
    };
    (@link) => { false };
    (@link link) => { true };
}

impl Opcode {
    /// This opcode's row. A set-flag condition offsets into its variant's
    /// rows, which follow [`SetFlagCond`]'s declaration order.
    #[inline]
    pub(crate) const fn row(self) -> &'static Row {
        let cond = match self {
            Opcode::Sf(cond) | Opcode::Sfi(cond) => cond as usize,
            _ => 0,
        };
        &TABLE[self.variant_index() + cond]
    }
}

// ALU sub-fields (major 0x38): op = bits 3..0, op2 = 9..8, op3 = 7..6.
// Set-flag conditions sit in bits 25..21.
const ALU: u32 = 0x30F;
const ALU_OP3: u32 = 0x3CF;
const OP3: u32 = 0xC0;
const COND: u32 = 0x1F << 21;

orbis32! {
    // mnemonic  opcode      major fixed      select   format     class       mem
    "l.add",     Add,        0x38, 0x000,     ALU,     Rrr,       Add,        0;
    "l.addc",    Addc,       0x38, 0x001,     ALU,     Rrr,       Add,        0;
    "l.sub",     Sub,        0x38, 0x002,     ALU,     Rrr,       Add,        0;
    "l.and",     And,        0x38, 0x003,     ALU,     Rrr,       And,        0;
    "l.or",      Or,         0x38, 0x004,     ALU,     Rrr,       Or,         0;
    "l.xor",     Xor,        0x38, 0x005,     ALU,     Rrr,       Xor,        0;
    "l.mul",     Mul,        0x38, 0x306,     ALU,     Rrr,       Mul,        0;
    "l.mulu",    Mulu,       0x38, 0x30B,     ALU,     Rrr,       Mul,        0;
    "l.sll",     Sll,        0x38, 0x008,     ALU_OP3, Rrr,       Shift,      0;
    "l.srl",     Srl,        0x38, 0x048,     ALU_OP3, Rrr,       Shift,      0;
    "l.sra",     Sra,        0x38, 0x088,     ALU_OP3, Rrr,       Shift,      0;
    "l.ror",     Ror,        0x38, 0x0C8,     ALU_OP3, Rrr,       Shift,      0;
    "l.cmov",    Cmov,       0x38, 0x00E,     ALU,     Rrr,       Move,       0;
    "l.extbs",   Extbs,      0x38, 0x04C,     ALU_OP3, Rr,        Move,       0;
    "l.exths",   Exths,      0x38, 0x00C,     ALU_OP3, Rr,        Move,       0;
    "l.addi",    Addi,       0x27, 0,         0,       RriS16,    Add,        0;
    "l.addic",   Addic,      0x28, 0,         0,       RriS16,    Add,        0;
    "l.andi",    Andi,       0x29, 0,         0,       RriU16,    And,        0;
    "l.ori",     Ori,        0x2A, 0,         0,       RriU16,    Or,         0;
    "l.xori",    Xori,       0x2B, 0,         0,       RriS16,    Xor,        0;
    "l.muli",    Muli,       0x2C, 0,         0,       RriS16,    Mul,        0;
    "l.slli",    Slli,       0x2E, 0x00,      OP3,     RriShamt5, Shift,      0;
    "l.srli",    Srli,       0x2E, 0x40,      OP3,     RriShamt5, Shift,      0;
    "l.srai",    Srai,       0x2E, 0x80,      OP3,     RriShamt5, Shift,      0;
    "l.rori",    Rori,       0x2E, 0xC0,      OP3,     RriShamt5, Shift,      0;
    "l.movhi",   Movhi,      0x06, 0,         0,       Movhi,     Move,       0;
    "l.sfeq",    Sf(Eq),     0x39, 0x0 << 21, COND,    Sf,        SetFlag,    0;
    "l.sfne",    Sf(Ne),     0x39, 0x1 << 21, COND,    Sf,        SetFlag,    0;
    "l.sfgtu",   Sf(Gtu),    0x39, 0x2 << 21, COND,    Sf,        SetFlag,    0;
    "l.sfgeu",   Sf(Geu),    0x39, 0x3 << 21, COND,    Sf,        SetFlag,    0;
    "l.sfltu",   Sf(Ltu),    0x39, 0x4 << 21, COND,    Sf,        SetFlag,    0;
    "l.sfleu",   Sf(Leu),    0x39, 0x5 << 21, COND,    Sf,        SetFlag,    0;
    "l.sfgts",   Sf(Gts),    0x39, 0xA << 21, COND,    Sf,        SetFlag,    0;
    "l.sfges",   Sf(Ges),    0x39, 0xB << 21, COND,    Sf,        SetFlag,    0;
    "l.sflts",   Sf(Lts),    0x39, 0xC << 21, COND,    Sf,        SetFlag,    0;
    "l.sfles",   Sf(Les),    0x39, 0xD << 21, COND,    Sf,        SetFlag,    0;
    "l.sfeqi",   Sfi(Eq),    0x2F, 0x0 << 21, COND,    Sfi,       SetFlag,    0;
    "l.sfnei",   Sfi(Ne),    0x2F, 0x1 << 21, COND,    Sfi,       SetFlag,    0;
    "l.sfgtui",  Sfi(Gtu),   0x2F, 0x2 << 21, COND,    Sfi,       SetFlag,    0;
    "l.sfgeui",  Sfi(Geu),   0x2F, 0x3 << 21, COND,    Sfi,       SetFlag,    0;
    "l.sfltui",  Sfi(Ltu),   0x2F, 0x4 << 21, COND,    Sfi,       SetFlag,    0;
    "l.sfleui",  Sfi(Leu),   0x2F, 0x5 << 21, COND,    Sfi,       SetFlag,    0;
    "l.sfgtsi",  Sfi(Gts),   0x2F, 0xA << 21, COND,    Sfi,       SetFlag,    0;
    "l.sfgesi",  Sfi(Ges),   0x2F, 0xB << 21, COND,    Sfi,       SetFlag,    0;
    "l.sfltsi",  Sfi(Lts),   0x2F, 0xC << 21, COND,    Sfi,       SetFlag,    0;
    "l.sflesi",  Sfi(Les),   0x2F, 0xD << 21, COND,    Sfi,       SetFlag,    0;
    "l.lwz",     Lwz,        0x21, 0,         0,       Load,      Load,       4;
    "l.lws",     Lws,        0x22, 0,         0,       Load,      Load,       4;
    "l.lhz",     Lhz,        0x25, 0,         0,       Load,      Load,       2;
    "l.lhs",     Lhs,        0x26, 0,         0,       Load,      Load,       2;
    "l.lbz",     Lbz,        0x23, 0,         0,       Load,      Load,       1;
    "l.lbs",     Lbs,        0x24, 0,         0,       Load,      Load,       1;
    "l.sw",      Sw,         0x35, 0,         0,       Store,     Store,      4;
    "l.sh",      Sh,         0x37, 0,         0,       Store,     Store,      2;
    "l.sb",      Sb,         0x36, 0,         0,       Store,     Store,      1;
    "l.j",       J,          0x00, 0,         0,       PcRel26,   Jump,       0;
    "l.jal",     Jal,        0x01, 0,         0,       PcRel26,   Jump,       0, link;
    "l.jr",      Jr,         0x11, 0,         0,       RegJump,   JumpReg,    0;
    "l.jalr",    Jalr,       0x12, 0,         0,       RegJump,   JumpReg,    0, link;
    "l.bf",      Bf,         0x04, 0,         0,       PcRel26,   BranchCond, 0;
    "l.bnf",     Bnf,        0x03, 0,         0,       PcRel26,   BranchCond, 0;
    "l.rfe",     Rfe,        0x09, 0,         0,       Rfe,       JumpReg,    0;
    "l.nop",     Nop,        0x05, 1 << 24,   0,       NopU16,    Nop,        0;
}

/// Decoder dispatch for one primary opcode: the window of `select` bits
/// that tells its rows apart, and where the window's row ids start in
/// [`ROW_IDS`].
#[derive(Clone, Copy)]
struct Window {
    shift: u32,
    mask: u32,
    base: usize,
}

const WINDOWS: [Window; 64] = {
    let mut windows = [Window {
        shift: 0,
        mask: 0,
        base: 0,
    }; 64];
    let (mut major, mut base) = (0, 0);
    while major < 64 {
        let mut select = 0;
        let mut i = 0;
        while i < TABLE.len() {
            if TABLE[i].major == major as u32 {
                select |= TABLE[i].select;
            }
            i += 1;
        }
        let shift = select.trailing_zeros() % 32;
        let mask = if select == 0 {
            0
        } else {
            u32::MAX >> (select.leading_zeros() + shift)
        };
        windows[major] = Window { shift, mask, base };
        base += mask as usize + 1;
        major += 1;
    }
    windows
};

const NO_ROW: u8 = u8::MAX;
const ROW_IDS_LEN: usize = WINDOWS[63].base + WINDOWS[63].mask as usize + 1;

/// Row index of every `(primary opcode, window value)`, [`NO_ROW`] where no
/// row matches. Building it fails the compile if two rows share an encoding.
const ROW_IDS: [u8; ROW_IDS_LEN] = {
    let mut ids = [NO_ROW; ROW_IDS_LEN];
    let mut major = 0;
    while major < 64 {
        let window = WINDOWS[major];
        let mut value = 0;
        while value <= window.mask {
            let bits = value << window.shift;
            let mut i = 0;
            while i < TABLE.len() {
                let row = &TABLE[i];
                if row.major == major as u32 && bits & row.select == row.fixed & row.select {
                    assert!(
                        ids[window.base + value as usize] == NO_ROW,
                        "ambiguous encoding"
                    );
                    ids[window.base + value as usize] = i as u8;
                }
                i += 1;
            }
            value += 1;
        }
        major += 1;
    }
    ids
};

/// The row `word` encodes, by primary opcode and sub-field window.
pub(crate) fn row_of_word(word: u32) -> Result<&'static Row, IsaError> {
    let window = WINDOWS[(word >> 26) as usize];
    let id = ROW_IDS[window.base + ((word >> window.shift) & window.mask) as usize];
    TABLE
        .get(usize::from(id))
        .ok_or(IsaError::UnknownEncoding { word })
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::{asm::Assembler, disasm::format_insn, Insn};
    use std::fmt::Write;

    /// Every row at its min, zero and max immediates, each with r0, r31 and
    /// distinct registers.
    pub(crate) fn every_row_instance() -> Vec<Insn> {
        let mut insns = Vec::new();
        for row in TABLE {
            let mut imms = match row.facts.format.imm().map(ImmField::range) {
                Some((min, max)) => vec![min, 0, max],
                None => vec![0],
            };
            imms.dedup();
            for imm in imms {
                for (rd, ra, rb) in [(0, 0, 0), (31, 31, 31), (3, 4, 5)] {
                    let (rd, ra, rb) = (Reg::r(rd), Reg::r(ra), Reg::r(rb));
                    insns.push(Insn::checked(row.opcode, rd, ra, rb, imm).unwrap());
                }
            }
        }
        // Formats without some register field repeat an instance.
        insns.dedup();
        insns
    }

    #[test]
    fn rows_are_consistent() {
        for row in TABLE {
            assert_eq!(row.opcode.row().mnemonic, row.mnemonic);
            assert_eq!(
                TABLE.iter().filter(|r| r.mnemonic == row.mnemonic).count(),
                1
            );
            // Fixed sub-fields never overlap an operand field.
            let all = Operands {
                rd: Some(Reg::r(31)),
                ra: Some(Reg::r(31)),
                rb: Some(Reg::r(31)),
                imm: Some(-1),
            };
            assert_eq!(
                row.facts.format.pack(&all) & row.fixed,
                0,
                "{}",
                row.mnemonic
            );
        }
        // Every opcode variant and set-flag condition has exactly one row.
        assert_eq!(TABLE.len(), 43 + 2 * SetFlagCond::ALL.len());
    }

    #[test]
    fn every_row_round_trips_through_the_disassembler_and_assembler() {
        for insn in every_row_instance() {
            let text = format_insn(&insn);
            let program = Assembler::new().assemble(&text).unwrap();
            assert_eq!(program.insns(), &[insn], "{text}");
        }
    }

    #[test]
    fn immediates_are_checked_at_both_ends_of_every_field() {
        for row in TABLE {
            let Some(field) = row.facts.format.imm() else {
                continue;
            };
            let (min, max) = field.range();
            let r = Reg::r(1);
            for imm in [min, max] {
                assert!(Insn::checked(row.opcode, r, r, r, imm).is_ok());
            }
            for imm in [min - 1, max + 1] {
                let expected = IsaError::ImmediateOutOfRange {
                    mnemonic: row.mnemonic,
                    value: imm,
                    bits: field.bits,
                    signed: field.signed,
                };
                assert_eq!(Insn::checked(row.opcode, r, r, r, imm), Err(expected));
                // The assembler rejects the same value instead of truncating it.
                let operands = Operands {
                    rd: Some(r),
                    ra: Some(r),
                    rb: Some(r),
                    imm: Some(imm as i32),
                };
                let text = format_insn(&Insn::from_parts(row.opcode, operands));
                match Assembler::new().assemble(&text) {
                    Err(IsaError::ImmediateOutOfRange { mnemonic, .. }) => {
                        assert_eq!(mnemonic, row.mnemonic, "{text}");
                    }
                    other => panic!("`{text}` assembled to {other:?}"),
                }
            }
        }
    }

    /// Every row's facts, pinned by a snapshot taken before the table
    /// existed. The word is the canonical encoding of the row with
    /// `rD = r3, rA = r4, rB = r5, imm = 21`.
    #[test]
    fn opcode_facts_match_the_snapshot() {
        let mut out = String::new();
        for row in TABLE {
            let op = row.opcode;
            let raw = Insn::from_parts(
                op,
                Operands {
                    rd: Some(Reg::r(3)),
                    ra: Some(Reg::r(4)),
                    rb: Some(Reg::r(5)),
                    imm: Some(21),
                },
            );
            let word = Insn::decode(raw.encode()).unwrap().encode();
            writeln!(
                out,
                "{:<9} class={:<10} reads_ra={:<5} reads_rb={:<5} writes_rd={:<5} mem_width={:<7} word={word:#010x}",
                op.mnemonic(),
                format!("{:?}", op.timing_class()),
                op.reads_ra(),
                op.reads_rb(),
                op.writes_rd(),
                format!("{:?}", op.mem_width()),
            )
            .unwrap();
        }
        assert_eq!(out, include_str!("../tests/golden/opcode_facts.txt"));
    }
}
