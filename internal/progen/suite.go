package progen

// Suite returns the 13-program evaluation suite: every program occurring in
// both Google fuzzer-test-suite and FuzzBench, as selected by the paper
// (§5), with shape profiles tuned to reproduce each target's qualitative
// behaviour in the experiments.
func Suite() []Profile {
	return []Profile{
		{
			// Large font library: many parsers, moderate IPO.
			Name: "freetype2", Seed: 1, Parsers: 10, ParserLoopBlocks: 3,
			TinyHelpers: 18, UncalledHelpers: 10, DeadArgHelpers: 8,
			HelperCallDensity: 60, HelperCallsPerIter: 3, ConstTables: 6, PrintfStrings: 2,
			Aliases: 1, MagicsPerParser: 4, JunkArith: 3,
		},
		{
			// Self-contained DCT arithmetic: hot loops rarely cross
			// function boundaries, so blind partitioning barely hurts
			// (best case in Figure 10).
			Name: "libjpeg", Seed: 2, Parsers: 6, ParserLoopBlocks: 4,
			TinyHelpers: 8, DeadArgHelpers: 2, HelperCallDensity: 5, HelperCallsPerIter: 0,
			ConstTables: 4, MagicsPerParser: 3, JunkArith: 4,
		},
		{
			// Projection math: arithmetic chains, some helpers.
			Name: "proj4", Seed: 3, Parsers: 5, ParserLoopBlocks: 5,
			TinyHelpers: 10, DeadArgHelpers: 4, HelperCallDensity: 40, HelperCallsPerIter: 1,
			ConstTables: 2, MagicsPerParser: 2, JunkArith: 5,
		},
		{
			Name: "libpng", Seed: 4, Parsers: 6, ParserLoopBlocks: 3,
			TinyHelpers: 10, UncalledHelpers: 4, DeadArgHelpers: 5,
			HelperCallDensity: 50, HelperCallsPerIter: 2, ConstTables: 4, PrintfStrings: 2,
			Aliases: 1, MagicsPerParser: 4, JunkArith: 3,
		},
		{
			// Regex engine: many small functions, dense call graph.
			Name: "re2", Seed: 5, Parsers: 12, ParserLoopBlocks: 2,
			TinyHelpers: 24, UncalledHelpers: 8, DeadArgHelpers: 10,
			HelperCallDensity: 70, HelperCallsPerIter: 4, ConstTables: 2, MagicsPerParser: 3,
			JunkArith: 2,
		},
		{
			// Shaping engine with pervasive cross-function hot paths:
			// the worst case for blind partitioning (187% in Figure 10).
			Name: "harfbuzz", Seed: 6, Parsers: 8, ParserLoopBlocks: 3,
			TinyHelpers: 20, DeadArgHelpers: 12, HelperCallDensity: 95, HelperCallsPerIter: 7,
			ConstTables: 5, PrintfStrings: 1, Aliases: 1,
			MagicsPerParser: 4, JunkArith: 2,
		},
		{
			// SQL engine: one enormous opcode interpreter
			// (sqlite3VdbeExec: 163 opcodes, 2058 blocks in the paper),
			// the worst-case recompilation fragment of Figure 12.
			Name: "sqlite", Seed: 7, Parsers: 6, ParserLoopBlocks: 3,
			TinyHelpers: 14, UncalledHelpers: 6, DeadArgHelpers: 6,
			HelperCallDensity: 50, HelperCallsPerIter: 2, ConstTables: 4, PrintfStrings: 1,
			BigSwitchCases: 120, MagicsPerParser: 3, JunkArith: 3,
		},
		{
			// Header-only C++ template library: hundreds of tiny
			// functions, most eliminated whole-program (27 of 544
			// survive in the paper).
			Name: "json", Seed: 8, Parsers: 4, ParserLoopBlocks: 2,
			TinyHelpers: 40, UncalledHelpers: 60, DeadArgHelpers: 6,
			HelperCallDensity: 80, HelperCallsPerIter: 4, ConstTables: 2, MagicsPerParser: 2,
			JunkArith: 2,
		},
		{
			// The classic XML parser target (also the Figure 3 program).
			Name: "libxml2", Seed: 9, Parsers: 10, ParserLoopBlocks: 4,
			TinyHelpers: 16, UncalledHelpers: 8, DeadArgHelpers: 8,
			HelperCallDensity: 55, HelperCallsPerIter: 3, ConstTables: 5, PrintfStrings: 2,
			Aliases: 1, MagicsPerParser: 6, JunkArith: 3,
		},
		{
			Name: "vorbis", Seed: 10, Parsers: 5, ParserLoopBlocks: 5,
			TinyHelpers: 8, DeadArgHelpers: 4, HelperCallDensity: 30, HelperCallsPerIter: 1,
			ConstTables: 3, MagicsPerParser: 2, JunkArith: 5,
		},
		{
			// Color management: table-driven transforms.
			Name: "lcms", Seed: 11, Parsers: 5, ParserLoopBlocks: 3,
			TinyHelpers: 8, DeadArgHelpers: 4, HelperCallDensity: 35, HelperCallsPerIter: 1,
			ConstTables: 8, MagicsPerParser: 2, JunkArith: 3,
		},
		{
			Name: "woff2", Seed: 12, Parsers: 4, ParserLoopBlocks: 2,
			TinyHelpers: 6, UncalledHelpers: 2, DeadArgHelpers: 3,
			HelperCallDensity: 45, HelperCallsPerIter: 2, ConstTables: 3, PrintfStrings: 1,
			MagicsPerParser: 3, JunkArith: 2,
		},
		{
			// Certificate parsing: magic-heavy format validation.
			Name: "x509", Seed: 13, Parsers: 6, ParserLoopBlocks: 2,
			TinyHelpers: 8, UncalledHelpers: 2, DeadArgHelpers: 5,
			HelperCallDensity: 50, HelperCallsPerIter: 2, ConstTables: 3, MagicsPerParser: 8,
			JunkArith: 2,
		},
	}
}

// ByName returns the suite profile with the given name.
func ByName(name string) (Profile, bool) {
	for _, p := range Suite() {
		if p.Name == name {
			return p, true
		}
	}
	return Profile{}, false
}

// Demo returns a small program with a planted bug for the fuzzing examples:
// parser 0 aborts on the input sequence <magic> 'B' 'U' 'G'.
func Demo() Profile {
	return Profile{
		Name: "demo", Seed: 99, Parsers: 3, ParserLoopBlocks: 2,
		TinyHelpers: 6, DeadArgHelpers: 3, HelperCallDensity: 60, HelperCallsPerIter: 2,
		ConstTables: 2, MagicsPerParser: 2, JunkArith: 2, PlantBug: true,
	}
}
