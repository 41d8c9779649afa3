// Package shieldsim is a deterministic discrete-event simulator of
// 2.4-era SMP Linux kernels, built to reproduce "Shielded Processors:
// Guaranteeing Sub-millisecond Response in Standard Linux" (Brosky &
// Rotolo, IPPS 2003).
//
// The simulator models CPUs (including hyperthread sibling contention and
// memory-bus interference), an IO-APIC-style interrupt subsystem with
// per-IRQ affinity and the local timer interrupt, softirq/bottom-half
// processing, spinlocks and the Big Kernel Lock, preemptible and
// non-preemptible kernel configurations, both the O(1) and the legacy 2.4
// schedulers, and device models (RTC, the Concurrent RCIM card, NIC, SCSI
// disk, GPU). On top of that substrate it implements the paper's
// contribution: the /proc/shield interface and the shielded-CPU affinity
// semantics.
//
// # Quick start
//
//	cfg := shieldsim.RedHawk14(2, 1.4)          // dual 1.4 GHz Xeon
//	sys := shieldsim.NewSystem(cfg, 1, shieldsim.SystemOptions{
//		RTCHz: 2048,
//		Loads: []string{shieldsim.LoadStressKernel},
//	})
//	rt := sys.K.NewTask("rt", shieldsim.SchedFIFO, 90,
//		shieldsim.MaskOf(1), myBehavior)
//	sys.Start()
//	sys.ShieldCPU(1)                            // writes /proc/shield/all
//	sys.K.Eng.Run(shieldsim.Time(10 * shieldsim.Second))
//
// Every run with the same seed is bit-reproducible. All times are
// virtual; the simulator is single-threaded by design.
//
// The paper's seven figures and the ablations are packaged as
// experiments; see Experiments, or the rtsim command.
package shieldsim

import (
	"repro/internal/core"
	"repro/internal/dev"
	"repro/internal/kernel"
	"repro/internal/metrics"
	"repro/internal/sim"
)

// Core simulation types.
type (
	// Time is a virtual-time instant in nanoseconds.
	Time = sim.Time
	// Duration is a virtual-time span in nanoseconds.
	Duration = sim.Duration
	// Engine is the discrete-event engine driving a system.
	Engine = sim.Engine
	// RNG is the deterministic random source.
	RNG = sim.RNG
)

// Re-exported duration units.
const (
	Nanosecond  = sim.Nanosecond
	Microsecond = sim.Microsecond
	Millisecond = sim.Millisecond
	Second      = sim.Second
)

// Kernel model types.
type (
	// Kernel is one simulated machine running one kernel configuration.
	Kernel = kernel.Kernel
	// Config selects the kernel variant and machine.
	Config = kernel.Config
	// Timing holds the calibration constants.
	Timing = kernel.Timing
	// CPUMask is a bitmask of logical CPUs, /proc-style.
	CPUMask = kernel.CPUMask
	// CPU is one logical processor.
	CPU = kernel.CPU
	// Task is a simulated process or thread.
	Task = kernel.Task
	// Behavior drives a task's actions.
	Behavior = kernel.Behavior
	// BehaviorFunc adapts a function to Behavior.
	BehaviorFunc = kernel.BehaviorFunc
	// Action is one step of a task's life.
	Action = kernel.Action
	// SyscallCall describes a system call's kernel regions.
	SyscallCall = kernel.SyscallCall
	// Segment is one kernel region inside a syscall.
	Segment = kernel.Segment
	// WaitQueue blocks and wakes tasks.
	WaitQueue = kernel.WaitQueue
	// SpinLock is a kernel spinlock.
	SpinLock = kernel.SpinLock
	// IRQLine is one external interrupt line.
	IRQLine = kernel.IRQLine
	// SchedPolicy is the POSIX scheduling policy.
	SchedPolicy = kernel.SchedPolicy
)

// Scheduling policies.
const (
	SchedOther = kernel.SchedOther
	SchedFIFO  = kernel.SchedFIFO
	SchedRR    = kernel.SchedRR
)

// Segment and action kinds.
const (
	SegWork  = kernel.SegWork
	SegBlock = kernel.SegBlock
)

// Kernel presets from the paper's evaluation.
var (
	// StandardLinux24 is stock kernel.org 2.4.18.
	StandardLinux24 = kernel.StandardLinux24
	// RedHawk14 is RedHawk Linux 1.4 (preemption + low-latency + O(1)
	// + shield support + the §6 fixes).
	RedHawk14 = kernel.RedHawk14
	// PatchedLinux24 is 2.4.18 with the open-source preemption and
	// low-latency patches only.
	PatchedLinux24 = kernel.PatchedLinux24
	// DefaultTiming returns the calibrated timing constants.
	DefaultTiming = kernel.DefaultTiming
)

// Mask helpers.
var (
	// MaskOf builds a mask from CPU numbers.
	MaskOf = kernel.MaskOf
	// MaskAll builds a mask of the first n CPUs.
	MaskAll = kernel.MaskAll
	// ParseMask parses the /proc hex representation.
	ParseMask = kernel.ParseMask
	// EffectiveAffinity applies the paper's shielding semantics.
	EffectiveAffinity = kernel.EffectiveAffinity
)

// Behavior action constructors.
var (
	// Compute burns user-mode CPU.
	Compute = kernel.Compute
	// Sleep blocks for a duration.
	Sleep = kernel.Sleep
	// Syscall enters the kernel.
	Syscall = kernel.Syscall
	// Yield returns to the scheduler.
	Yield = kernel.Yield
	// Exit terminates the task.
	Exit = kernel.Exit
	// NewKernel builds a bare machine (no devices); most callers want
	// NewSystem instead.
	NewKernel = kernel.New
	// NewWaitQueue builds a wait queue.
	NewWaitQueue = kernel.NewWaitQueue
)

// Device models.
type (
	// RTC is the Real-Time Clock and its /dev/rtc driver.
	RTC = dev.RTC
	// RCIM is Concurrent's Real-Time Clock and Interrupt Module.
	RCIM = dev.RCIM
	// ExternalInput is an RCIM edge-triggered external input.
	ExternalInput = dev.ExternalInput
	// NIC is the Ethernet controller.
	NIC = dev.NIC
	// Disk is the SCSI drive.
	Disk = dev.Disk
	// GPU is the graphics controller.
	GPU = dev.GPU
)

// Device constructors.
var (
	// NewRTC creates the RTC at the given periodic rate.
	NewRTC = dev.NewRTC
	// NewRCIM creates the RCIM with the given timer period.
	NewRCIM = dev.NewRCIM
	// NewNIC creates an Ethernet controller.
	NewNIC = dev.NewNIC
	// NewDisk creates a SCSI drive.
	NewDisk = dev.NewDisk
	// NewGPU creates a graphics controller.
	NewGPU = dev.NewGPU
)

// System assembly (kernel + devices + workloads).
type (
	// System is an assembled machine.
	System = core.System
	// SystemOptions selects devices and background load.
	SystemOptions = core.SystemOptions
)

// NewSystem assembles a machine.
var NewSystem = core.NewSystem

// Background load names for SystemOptions.Loads.
const (
	LoadScpFlood     = core.LoadScpFlood
	LoadDiskNoise    = core.LoadDiskNoise
	LoadStressKernel = core.LoadStressKernel
	LoadX11Perf      = core.LoadX11Perf
	LoadTTCPNet      = core.LoadTTCPNet
	LoadScpBurst     = core.LoadScpBurst
)

// Experiments: the paper's figures and ablations.
type (
	// Experiment is one reproducible figure.
	Experiment = core.Experiment
	// DeterminismConfig parameterises the §5.1 test.
	DeterminismConfig = core.DeterminismConfig
	// DeterminismResult is a Figures 1–4 style result.
	DeterminismResult = core.DeterminismResult
	// RealfeelConfig parameterises the §6.1 test.
	RealfeelConfig = core.RealfeelConfig
	// RCIMConfig parameterises the §6.3 test.
	RCIMConfig = core.RCIMConfig
	// ResponseResult is a Figures 5–7 style result.
	ResponseResult = core.ResponseResult
	// JitterReport is the determinism summary.
	JitterReport = metrics.JitterReport
	// ResponseSummary is the mergeable latency aggregate inside a
	// ResponseResult.
	ResponseSummary = metrics.ResponseSummary
	// Histogram is a fixed-bucket latency histogram.
	Histogram = metrics.Histogram
)

// DeriveSeed derives a decorrelated child seed from a base seed and a
// replication index via splitmix64 — the derivation every experiment
// uses to seed independent replications.
var DeriveSeed = sim.DeriveSeed

// Experiment runners and registry.
var (
	// Experiments lists every reproducible figure and ablation.
	Experiments = core.Experiments
	// ExperimentByID finds one.
	ExperimentByID = core.ExperimentByID
	// RunDeterminism executes the §5.1 execution determinism test.
	RunDeterminism = core.RunDeterminism
	// DefaultDeterminism fills the paper's parameters.
	DefaultDeterminism = core.DefaultDeterminism
	// RunRealfeel executes the §6.1 realfeel test.
	RunRealfeel = core.RunRealfeel
	// RunRealfeelModes is RunRealfeel with independent shield sub-masks.
	RunRealfeelModes = core.RunRealfeelModes
	// DefaultRealfeel fills the paper's parameters.
	DefaultRealfeel = core.DefaultRealfeel
	// RunRCIM executes the §6.3 RCIM response test.
	RunRCIM = core.RunRCIM
	// DefaultRCIM fills the paper's parameters.
	DefaultRCIM = core.DefaultRCIM
	// NewHistogram builds a latency histogram.
	NewHistogram = metrics.NewHistogram
)
