// Package bb builds the basic-block intermediate representation shared by
// all predictors: decoded instructions, their per-microarchitecture
// descriptors, byte-layout information, and macro-fusion marking. It models
// the input side of the paper's §3 problem statement — "the bytes of a
// basic block on a given microarchitecture" — in the decoded, annotated
// form the §4 component predictors and the reference simulator consume.
//
// A Block is read-only between builds: every derived view the predictors
// need per prediction — fused/issue µop counts, the execution-µop list, the
// decode-unit list, the dataflow effects of each instruction, and the
// JCC-erratum flag — is computed once at build time, so prediction-time
// accessors are plain field reads that never allocate. Callers must treat
// the slices returned by those accessors as read-only.
//
// Build derives every instruction descriptor afresh and shares none between
// blocks, so each block owns all of its state. BuildInto rebuilds a Block
// in place, reusing its arrays: it decodes each instruction straight into
// the block's instruction array (x86.DecodeAt), with no intermediate
// instruction list. facile.Engine builds every cache miss into a pooled
// Block that it releases (Block.Release) before pooling it again, and keeps
// no block in its cache; Engine.Simulate builds a fresh Block with Build.
// Rebuilding the same bytes keeps the decode, and for a configuration that
// isa.SameDescs finds equivalent the descriptors too: a design-space sweep
// builds each block for its design points right after the block's base
// analysis built it, so the block is decoded once.
package bb
