/* Task task_ctl1_init: generated from the schedule of
 * uncontrollable source `env_in_ctl1_init` (42 nodes, 4 segments). */
#include "multi.data.h"

/* state variables (token counts of state places) */
int state_ctl1_coeff__filt1_coeff;
/* intra-task channel buffers */
int ch_ctl0_req__prod0_req;
int ch_ctl0_coeff__filt0_coeff;
int ch_prod0_pix__filt0_pix;
int ch_prod0_pdone__filt0_pdone;
int ch_filt0_fpix__cons0_fpix;
int ch_filt0_fdone__cons0_fdone;
int ch_cons0_ack__ctl0_ack;
int ch_ctl1_req__prod1_req;
int ch_ctl1_coeff__filt1_coeff;
int ch_prod1_pix__filt1_pix;
int ch_prod1_pdone__filt1_pdone;
int ch_filt1_fpix__cons1_fpix;
int ch_filt1_fdone__cons1_fdone;
int ch_cons1_ack__ctl1_ack;
/* process variables */
int cons0_q;
int cons0_s;
int cons0_d;
int cons1_q;
int cons1_s;
int cons1_d;
int ctl0_v;
int ctl0_s;
int ctl1_v;
int ctl1_s;
int filt0_p;
int filt0_c;
int filt0_d;
int filt1_p;
int filt1_c;
int filt1_d;
int prod0_r;
int prod0_i;
int prod1_r;
int prod1_i;

void init(void) {
    state_ctl1_coeff__filt1_coeff = 0;
    ch_ctl0_req__prod0_req = 0;
    ch_ctl0_coeff__filt0_coeff = 0;
    ch_prod0_pix__filt0_pix = 0;
    ch_prod0_pdone__filt0_pdone = 0;
    ch_filt0_fpix__cons0_fpix = 0;
    ch_filt0_fdone__cons0_fdone = 0;
    ch_cons0_ack__ctl0_ack = 0;
    ch_ctl1_req__prod1_req = 0;
    ch_ctl1_coeff__filt1_coeff = 0;
    ch_prod1_pix__filt1_pix = 0;
    ch_prod1_pdone__filt1_pdone = 0;
    ch_filt1_fpix__cons1_fpix = 0;
    ch_filt1_fdone__cons1_fdone = 0;
    ch_cons1_ack__ctl1_ack = 0;
    filt0_c = 1;
    filt1_c = 1;
}

void task_ctl1_init_run(void) {
cs_env_in_ctl1_init:
    READ_DATA(init, &ctl1_v, 1);
    if (((ctl1_v % 2) == 0)) {
        ch_ctl1_coeff__filt1_coeff = (ctl1_v + 2);
        state_ctl1_coeff__filt1_coeff = state_ctl1_coeff__filt1_coeff + 1;
        goto cs_ctl1_t4_write_req;
    } else if (!(((ctl1_v % 2) == 0))) {
        goto cs_ctl1_t4_write_req;
    }
cs_ctl1_t4_write_req:
    ch_ctl1_req__prod1_req = ctl1_v;
    prod1_r = ch_ctl1_req__prod1_req;
    prod1_i = 0;
    if (state_ctl1_coeff__filt1_coeff == 1) {
        goto cs_filt1_t0_sel_coeff;
    } else if (state_ctl1_coeff__filt1_coeff == 0) {
        goto cs_prod1_t1_true_prod1_t4_false;
    }
cs_filt1_t0_sel_coeff:
    filt1_c = ch_ctl1_coeff__filt1_coeff;
    state_ctl1_coeff__filt1_coeff = state_ctl1_coeff__filt1_coeff - 1;
    goto cs_prod1_t1_true_prod1_t4_false;
cs_prod1_t1_true_prod1_t4_false:
    if ((prod1_i < 4)) {
        ch_prod1_pix__filt1_pix = (prod1_r + prod1_i);
        prod1_i = (prod1_i + 1);
        filt1_p = ch_prod1_pix__filt1_pix;
        ch_filt1_fpix__cons1_fpix = (filt1_p * filt1_c);
        cons1_q = ch_filt1_fpix__cons1_fpix;
        cons1_s = (cons1_s + cons1_q);
        goto cs_prod1_t1_true_prod1_t4_false;
    } else if (!((prod1_i < 4))) {
        ch_prod1_pdone__filt1_pdone = 0;
        filt1_d = ch_prod1_pdone__filt1_pdone;
        ch_filt1_fdone__cons1_fdone = 0;
        cons1_d = ch_filt1_fdone__cons1_fdone;
        WRITE_DATA(out, cons1_s, 1);
        ch_cons1_ack__ctl1_ack = cons1_s;
        ctl1_s = ch_cons1_ack__ctl1_ack;
        cons1_s = 0;
        return;
    }
}
