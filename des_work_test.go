package xtsim_test

// desRow is one experiment's discrete-event work at -short: events
// executed by every engine it runs, and conservative window barriers
// crossed by its sharded runs.
type desRow struct {
	id               string
	events, barriers uint64
}

// desWork pins the DES work of every registered experiment at -short, in
// registry order (TestExperimentsDeterministic checks it). An engine or
// runtime change that claims to leave the model alone must leave every row
// unchanged; a deliberate model change regenerates the table from the
// test's failure output.
var desWork = []desRow{
	{"table1", 0, 0},
	{"fig1", 24, 0},
	{"fig2", 8466, 0},
	{"fig3", 8582, 0},
	{"fig4", 16, 0},
	{"fig5", 16, 0},
	{"fig6", 12, 0},
	{"fig7", 12, 0},
	{"fig8", 151545, 0},
	{"fig9", 268433, 0},
	{"fig10", 2290, 0},
	{"fig11", 285934, 0},
	{"fig12", 702, 0},
	{"fig13", 702, 0},
	{"fig14", 610371, 0},
	{"fig15", 7209833, 0},
	{"fig16", 355363, 0},
	{"fig17", 1672405, 0},
	{"fig18", 1425129, 0},
	{"fig19", 1193642, 0},
	{"fig20", 1601254, 0},
	{"fig21", 1396419, 0},
	{"fig22", 22456, 0},
	{"fig23", 918858, 0},
	{"imb", 2746, 0},
	{"ablation-vn", 66721, 0},
	{"ablation-coll", 6760, 0},
	{"ablation-mem", 7, 0},
	{"ablation-ddr2", 99, 0},
	{"ablation-jitter", 78094, 0},
	{"ablation-placement", 2313, 0},
	{"ablation-ring", 3358, 0},
	{"congestion", 7872, 0},
	{"critpath", 16496, 0},
	{"ext-checkpoint", 25112, 0},
	{"ext-io", 14318, 0},
	{"ext-ckpt", 169567, 0},
	{"ext-parallel", 28416, 198},
	{"ext-petascale", 266664, 0},
	{"ext-timeline", 34992, 198},
}
